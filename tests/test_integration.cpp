// Cross-module integration suites: every path a real Q-Gear deployment
// exercises end-to-end, chained through the public APIs only.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "qgear/baselines/pennylane.hpp"
#include "qgear/circuits/qft.hpp"
#include "qgear/circuits/random_blocks.hpp"
#include "qgear/core/state_io.hpp"
#include "qgear/core/transformer.hpp"
#include "qgear/perfmodel/model.hpp"
#include "qgear/platform/pipeline.hpp"
#include "qgear/qh5/file.hpp"
#include "qgear/qiskit/qasm.hpp"
#include "qgear/sim/fused.hpp"
#include "qgear/sim/observable.hpp"

namespace qgear {
namespace {

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Integration, FullRandomWorkloadPipeline) {
  // generate -> gate tensor -> qh5 on disk -> reload -> kernel -> run on
  // every target -> identical histograms for identical seeds.
  const std::string path = temp_file("qgear_integration.qh5");
  const auto tensor = circuits::generate_random_gate_list(
      3, {.num_qubits = 6, .num_blocks = 40, .measure = true, .seed = 5});
  {
    qh5::File f = qh5::File::create(path);
    core::save_tensor(tensor, f.root().create_group("circuits"));
    f.flush();
  }
  qh5::File f = qh5::File::open(path);
  const auto restored = core::load_tensor(f.root().group("circuits"));
  ASSERT_EQ(restored, tensor);

  const core::Kernel kernel = core::Kernel::from_tensor(restored, 1);
  const core::RunOptions run{.shots = 2000};
  core::Transformer cpu({.target = core::Target::cpu_aer,
                         .precision = core::Precision::fp64, .seed = 3});
  core::Transformer mgpu({.target = core::Target::nvidia_mgpu,
                          .precision = core::Precision::fp64,
                          .devices = 4, .seed = 3});
  const auto rc = cpu.run(kernel, run);
  const auto rm = mgpu.run(kernel, run);
  // Same physical distribution: total shots and top outcome agree.
  std::uint64_t tc = 0, tm = 0;
  for (const auto& [k, v] : rc.counts) tc += v;
  for (const auto& [k, v] : rm.counts) tm += v;
  EXPECT_EQ(tc, 2000u);
  EXPECT_EQ(tm, 2000u);
  std::remove(path.c_str());
}

TEST(Integration, QasmImportedCircuitThroughTensorAndEngines) {
  // QASM text -> circuit -> tensor -> kernel: the imported circuit's
  // state matches the original's.
  const auto original = circuits::build_qft(4);
  const std::string text = qiskit::qasm::to_qasm(original);
  const auto imported = qiskit::qasm::from_qasm(text);

  const core::GateTensor tensor = core::encode_circuits({&imported, 1});
  const core::Kernel kernel = core::Kernel::from_tensor(tensor, 0);
  core::Transformer gpu({.target = core::Target::nvidia,
                         .precision = core::Precision::fp64});
  const auto via_qasm = gpu.run(kernel, {.return_state = true});
  const auto direct = gpu.run(original, {.return_state = true});
  std::complex<double> overlap(0, 0);
  for (std::size_t i = 0; i < direct.state.size(); ++i) {
    overlap += std::conj(direct.state[i]) * via_qasm.state[i];
  }
  EXPECT_NEAR(std::norm(overlap), 1.0, 1e-10);
}

TEST(Integration, CheckpointedObservableEvaluation) {
  // Evolve, checkpoint to qh5 bytes, reload in a "second job", measure
  // an observable — values agree with the uninterrupted run.
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = 5, .num_blocks = 30, .measure = false, .seed = 2});
  sim::FusedEngine<double> eng;
  const auto state = eng.run(qc);
  const sim::Observable h = sim::Observable::ising_ring(5, 1.0, 0.5);
  const double direct = sim::expectation(state, h);

  qh5::File f = qh5::File::create("unused");
  core::save_state(state, f.root().create_group("job1"));
  const auto buf = qh5::File::serialize(f.root());
  const auto root = qh5::File::deserialize(buf.data(), buf.size());
  const auto resumed = core::load_state<double>(root.group("job1"));
  EXPECT_NEAR(sim::expectation(resumed, h), direct, 1e-12);
}

TEST(Integration, PipelineEstimatesMatchStandaloneModel) {
  // The pipeline's per-job estimates must be the perfmodel's estimates.
  std::vector<qiskit::QuantumCircuit> batch;
  batch.push_back(circuits::generate_random_circuit(
      {.num_qubits = 24, .num_blocks = 60, .measure = false, .seed = 8}));
  platform::PipelineConfig cfg;
  cfg.mode = platform::PipelineMode::parallel;
  const auto report = platform::run_pipeline(batch, cfg);
  perfmodel::ClusterConfig single = cfg.cluster;
  single.devices = 1;
  const auto standalone = perfmodel::estimate_gpu(batch[0], single, 0);
  ASSERT_EQ(report.circuits.size(), 1u);
  EXPECT_DOUBLE_EQ(report.circuits[0].estimate.total_s(),
                   standalone.total_s());
}

TEST(Integration, RoutedCircuitStillEncodable) {
  // A circuit routed onto a coupling map carries swap gates; the tensor
  // encoder must transpile them away and the decoded kernel must stay
  // executable.
  const auto qc = circuits::generate_random_circuit(
      {.num_qubits = 5, .num_blocks = 25, .measure = false, .seed = 6});
  qiskit::QuantumCircuit routed(5);
  routed.swap(0, 1).swap(3, 4);
  routed.compose(qc);
  routed.swap(1, 2).swap(2, 3);
  const core::GateTensor tensor = core::encode_circuits({&routed, 1});
  const core::Kernel kernel = core::Kernel::from_tensor(tensor, 0);
  core::Transformer t({.target = core::Target::nvidia,
                       .precision = core::Precision::fp64});
  const auto r = t.run(kernel, {.return_state = true});
  double norm = 0;
  for (const auto& a : r.state) norm += std::norm(a);
  EXPECT_NEAR(norm, 1.0, 1e-10);
}

TEST(Integration, PennylaneBaselineConsistentWithTransformer) {
  const auto qft = circuits::build_qft(8);
  const auto timing = baselines::run_pennylane_like(
      qft, {.target = core::Target::nvidia,
            .precision = core::Precision::fp64});
  EXPECT_GT(timing.engine_s, 0.0);
  EXPECT_GT(timing.total_s(), timing.engine_s);
}

}  // namespace
}  // namespace qgear
