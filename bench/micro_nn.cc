// Microbenchmarks of the neural-network substrate: matmul kernels per
// backend (scalar / AVX2), a full MSCN-shaped forward pass, a
// training step (forward + backward + Adam), and batched inference — the
// cost model behind section 4.7.

#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/featurizer.h"
#include "core/model.h"
#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "nn/adam.h"
#include "nn/kernels.h"
#include "nn/tensor.h"
#include "workload/generator.h"

namespace lc {
namespace {

const nn::KernelOps* BackendOps(int64_t which) {
  switch (static_cast<nn::KernelBackend>(which)) {
    case nn::KernelBackend::kScalar:
      return &nn::ScalarKernelOps();
    case nn::KernelBackend::kAvx2:
      return nn::Avx2KernelOps();
  }
  return nullptr;
}

const char* BackendArgName(int64_t which) {
  return nn::KernelBackendName(static_cast<nn::KernelBackend>(which));
}

void BM_MatMul(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  Rng rng(1);
  const Tensor a = Tensor::Randn({m, k}, 1.0f, &rng);
  const Tensor b = Tensor::Randn({k, n}, 1.0f, &rng);
  Tensor c;
  for (auto _ : state) {
    MatMul(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMul)
    ->Args({128, 134, 64})
    ->Args({384, 134, 64})
    ->Args({128, 64, 64})
    ->Args({512, 192, 64})
    // Paper-scale MSCN shapes (d=256): hidden layers and the wide
    // bitmaps-variant input layer, at serving batch sizes >= 64.
    ->Args({64, 256, 256})
    ->Args({256, 256, 256})
    ->Args({256, 1068, 256});

// The same GEMM pinned to one backend's dispatch table: the speedup of the
// avx2 rows over the scalar ones is the headline number of the SIMD backend
// (recorded in BENCH_pr7_simd_quant.json).
void BM_GemmBackend(benchmark::State& state) {
  const nn::KernelOps* ops = BackendOps(state.range(0));
  if (ops == nullptr) {
    state.SkipWithError("backend unavailable on this build/CPU");
    return;
  }
  const int64_t m = state.range(1);
  const int64_t k = state.range(2);
  const int64_t n = state.range(3);
  Rng rng(1);
  const Tensor a = Tensor::Randn({m, k}, 1.0f, &rng);
  const Tensor b = Tensor::Randn({k, n}, 1.0f, &rng);
  Tensor c({m, n});
  for (auto _ : state) {
    ops->gemm(a.data(), b.data(), c.data(), m, k, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel(BackendArgName(state.range(0)));
}
BENCHMARK(BM_GemmBackend)
    ->ArgNames({"backend", "m", "k", "n"})
    ->Args({0, 256, 256, 256})
    ->Args({1, 256, 256, 256})
    ->Args({0, 256, 1068, 256})
    ->Args({1, 256, 1068, 256})
    ->Args({1, 64, 256, 256})
    // Odd shapes: the remainder columns must not fall off a cliff.
    ->Args({1, 61, 131, 67});

// Shared fixture: a small database, workload and featurized batch.
struct MscnFixture {
  Database db;
  Executor executor;
  SampleSet samples;
  Workload workload;
  Featurizer featurizer;

  static ImdbConfig Config() {
    ImdbConfig config;
    config.seed = 77;
    config.num_titles = 3000;
    config.num_companies = 500;
    config.num_persons = 2000;
    config.num_keywords = 600;
    return config;
  }

  MscnFixture()
      : db(GenerateImdb(Config())),
        executor(&db),
        samples(&db, 128, 3),
        workload([this] {
          GeneratorConfig generator_config;
          generator_config.seed = 5;
          QueryGenerator generator(&db, generator_config);
          return generator.GenerateLabeled(executor, samples, 256, "bench");
        }()),
        featurizer(&db, FeatureVariant::kBitmaps, 128) {}

  static MscnFixture& Get() {
    static MscnFixture* fixture = new MscnFixture();
    return *fixture;
  }
};

void BM_FeaturizeBatch(benchmark::State& state) {
  MscnFixture& fixture = MscnFixture::Get();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    const MscnBatch batch =
        fixture.featurizer.MakeBatch(fixture.workload, 0, batch_size, nullptr);
    benchmark::DoNotOptimize(batch.tables.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_FeaturizeBatch)->Arg(32)->Arg(128)->Arg(256);

void BM_MscnForward(benchmark::State& state) {
  MscnFixture& fixture = MscnFixture::Get();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  MscnConfig config;
  config.hidden_units = 64;
  Rng rng(2);
  MscnModel model(fixture.featurizer.dims(), config, &rng);
  model.set_normalizer(TargetNormalizer(0.0, 15.0));
  const MscnBatch batch =
      fixture.featurizer.MakeBatch(fixture.workload, 0, batch_size, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_MscnForward)->Arg(1)->Arg(64)->Arg(256);

// Steady-state serving: EstimateAll through a reused tape workspace, the
// path the section 4.7 batched-latency numbers measure.
void BM_MscnEstimateAll(benchmark::State& state) {
  MscnFixture& fixture = MscnFixture::Get();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  MscnConfig config;
  config.hidden_units = 64;
  Rng rng(6);
  MscnModel model(fixture.featurizer.dims(), config, &rng);
  model.set_normalizer(TargetNormalizer(0.0, 15.0));
  MscnEstimator estimator(&fixture.featurizer, &model);
  std::vector<const LabeledQuery*> queries;
  for (const LabeledQuery& query : fixture.workload.queries) {
    queries.push_back(&query);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.EstimateAll(queries, batch_size));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
  state.SetLabel(
      nn::KernelBackendName(nn::ActiveKernelBackend()));
}
BENCHMARK(BM_MscnEstimateAll)->Arg(64)->Arg(256);

void BM_MscnTrainStep(benchmark::State& state) {
  MscnFixture& fixture = MscnFixture::Get();
  const size_t batch_size = static_cast<size_t>(state.range(0));
  MscnConfig config;
  config.hidden_units = 64;
  Rng rng(3);
  MscnModel model(fixture.featurizer.dims(), config, &rng);
  const TargetNormalizer normalizer(0.0, 15.0);
  model.set_normalizer(normalizer);
  Adam adam(model.parameters());
  const MscnBatch batch = fixture.featurizer.MakeBatch(
      fixture.workload, 0, batch_size, &normalizer);
  for (auto _ : state) {
    Tape tape;
    const Tape::NodeId prediction = model.Forward(&tape, batch);
    const Tape::NodeId loss =
        tape.MeanQErrorLoss(prediction, batch.targets, 15.0f);
    adam.ZeroGrad();
    tape.Backward(loss);
    adam.Step();
    benchmark::DoNotOptimize(tape.value(loss)[0]);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_MscnTrainStep)->Arg(64)->Arg(128)->Arg(256);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(4);
  Parameter parameter(Tensor::Randn({256, 256}, 0.1f, &rng));
  parameter.grad = Tensor::Randn({256, 256}, 0.1f, &rng);
  Adam adam({&parameter});
  for (auto _ : state) {
    adam.Step();
    benchmark::DoNotOptimize(parameter.value.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_AdamStep);

}  // namespace
}  // namespace lc

BENCHMARK_MAIN();
