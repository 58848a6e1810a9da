// Scenario: operating MSCN like a database component — train once on an
// immutable snapshot, serialize the model to disk, load it in a fresh
// process (simulated here by a second model instance), and verify that the
// loaded estimator is bit-identical. Also demonstrates workload
// serialization (a labelled corpus saved for later retraining) and what
// re-training on a changed database looks like (paper section 5,
// "Updates").

#include <iostream>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "util/file.h"
#include "util/stats.h"
#include "util/str.h"
#include "workload/generator.h"

namespace {

lc::Workload BuildCorpus(const lc::Database& db, const lc::SampleSet& samples,
                         const lc::Executor& executor, uint64_t seed,
                         size_t count) {
  lc::GeneratorConfig config;
  config.seed = seed;
  lc::QueryGenerator generator(&db, config);
  return generator.GenerateLabeled(executor, samples, count, "corpus");
}

lc::MscnModel TrainModel(const lc::Featurizer& featurizer,
                         const lc::Workload& corpus) {
  lc::MscnConfig config;
  config.hidden_units = 32;
  config.epochs = 12;
  lc::Trainer trainer(&featurizer, config);
  const lc::TrainValSplit split = lc::SplitWorkload(corpus, 0.1, 3);
  return trainer.Train(split.train, split.validation, nullptr);
}

}  // namespace

int main() {
  lc::ImdbConfig imdb_config;
  imdb_config.num_titles = 8000;
  imdb_config.num_companies = 600;
  imdb_config.num_persons = 5000;
  imdb_config.num_keywords = 1200;
  const lc::Database db = lc::GenerateImdb(imdb_config);
  const lc::SampleSet samples(&db, 128, 4);
  const lc::Executor executor(&db);

  const lc::Workload corpus = BuildCorpus(db, samples, executor, 8, 2500);

  // --- Snapshot 1: train and persist. ---
  const lc::Featurizer featurizer(&db, lc::FeatureVariant::kBitmaps,
                                  samples.sample_size());
  lc::MscnModel model = TrainModel(featurizer, corpus);
  const std::string model_path = "/tmp/lc_example_model.bin";
  const lc::Status save_status = model.SaveToFile(model_path);
  if (!save_status.ok()) {
    std::cerr << "saving failed: " << save_status << "\n";
    return 1;
  }
  std::cout << "saved model to " << model_path << " ("
            << lc::HumanBytes(lc::FileSize(model_path).value()) << ")\n";

  // --- "Another process": load and compare predictions. ---
  auto loaded = lc::MscnModel::LoadFromFile(model_path);
  if (!loaded.ok()) {
    std::cerr << "loading failed: " << loaded.status() << "\n";
    return 1;
  }
  lc::MscnEstimator original(&featurizer, &model, "original");
  lc::MscnEstimator restored(&featurizer, &*loaded, "restored");
  double max_divergence = 0.0;
  for (size_t i = 0; i < 50; ++i) {
    const lc::LabeledQuery& query = corpus.queries[i];
    max_divergence = std::max(
        max_divergence,
        lc::QError(original.Estimate(query), restored.Estimate(query)));
  }
  std::cout << lc::Format(
      "max estimate divergence original vs restored over 50 queries: %.6f "
      "(1.0 = identical)\n",
      max_divergence);

  // --- Workload serialization: a labelled corpus kept for retraining. ---
  const std::string corpus_path = "/tmp/lc_example_corpus.bin";
  if (corpus.SaveToFile(corpus_path).ok()) {
    const auto reloaded = lc::Workload::LoadFromFile(corpus_path);
    std::cout << "workload round trip: " << reloaded->size() << " queries, "
              << lc::HumanBytes(lc::FileSize(corpus_path).value())
              << " on disk\n";
  }

  // --- Data change: the paper's section 5 prescribes re-training from the
  //     new snapshot (one-hot widths and value bounds may shift). ---
  imdb_config.seed += 1;  // A "changed" database snapshot.
  const lc::Database changed_db = lc::GenerateImdb(imdb_config);
  const lc::SampleSet changed_samples(&changed_db, 128, 4);
  const lc::Executor changed_executor(&changed_db);
  const lc::Workload changed_corpus =
      BuildCorpus(changed_db, changed_samples, changed_executor, 9, 2500);
  const lc::Featurizer changed_featurizer(
      &changed_db, lc::FeatureVariant::kBitmaps,
      changed_samples.sample_size());
  lc::MscnModel retrained = TrainModel(changed_featurizer, changed_corpus);
  std::cout << "re-trained on the changed snapshot; new model footprint "
            << lc::HumanBytes(retrained.ToBytes().size()) << "\n";

  (void)lc::RemoveFile(model_path);
  (void)lc::RemoveFile(corpus_path);
  return 0;
}
