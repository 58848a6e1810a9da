// MSCN as a drop-in CardinalityEstimator: featurize, run the model, invert
// the target normalization (paper section 3.5). The estimator consumes the
// query's precomputed sample annotations — the runtime-sampling step of the
// paper's inference pipeline.
//
// Serving-path features:
//  - An optional sharded LRU result cache (canonical query → estimate)
//    sized by the LC_EST_CACHE knob (entries; 0 disables; default 4096).
//    A hit skips featurization and the forward pass. Counters are exposed
//    via cache_counters() and printed by eval::PrintCacheCounters.
//  - Every cache entry records the publication generation it was computed
//    under and is served only while that generation is current, so a
//    retrain can never surface a pre-retrain estimate as fresh — even when
//    the swap races with serving threads. See "Invalidation protocol"
//    below.
//  - EstimateAll partitions its batches across the process thread pool
//    with per-shard tapes, yielding the same estimates as the sequential
//    path bit-for-bit (padding rows are zero and masked, so a query's
//    forward pass is independent of its batch neighbours).
//  - EstimateBatch is the thread-safe batched submit path used by
//    serve::EstimatorServer: it consults and fills the cache, reports
//    per-query hit flags, and scores all misses in one forward pass on a
//    caller-owned tape.
//
// Model ownership: the estimator holds its model behind a SwapHandle
// (util/swap_handle.h). Constructed over a raw pointer it merely borrows
// (the model must outlive it); constructed over a shared_ptr it shares
// ownership. Either way, every estimate path works on a Load()ed snapshot.
//
// A published model is an immutable fp32 snapshot: nothing writes its
// weights while it is served, so the estimate paths take no model lock.
// The one way to change what is served is copy-train-swap
// (docs/ARCHITECTURE.md, "Serving"): Trainer::TrainClone trains a private
// copy off to the side, and SwapModel publishes it with a pointer
// exchange. In-flight estimates finish against the model they started
// with.
//
// Invalidation protocol (pinned by tests/serve_test.cc under TSan):
//  - Each publication carries a generation that SwapModel assigns under
//    swap_mu_ as the superseded one's plus one, so generations strictly
//    increase — also when an earlier model object is published again
//    (A -> B -> A), where a per-model tag would repeat.
//  - Lookups compare an entry's generation with the generation of the
//    caller's snapshot and treat any mismatch as a miss, erasing the entry
//    in place (lazy retirement — never a global wipe). Entries inserted by
//    in-flight estimates that started before a swap carry the superseded
//    generation and are therefore never served afterwards.

#ifndef LC_CORE_MSCN_ESTIMATOR_H_
#define LC_CORE_MSCN_ESTIMATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/model.h"
#include "est/estimator.h"
#include "nn/tape.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/swap_handle.h"
#include "util/thread_annotations.h"

namespace lc {

/// Shared scaffolding of the batched estimation paths (MscnEstimator and
/// MscnEnsemble): partitions [0, queries.size()) into consecutive batches
/// of `batch_size`, shards whole batches across `pool`, and calls
/// per_batch(tape, slice, begin) with a per-shard reusable tape. Batch
/// composition and result slots are fixed, so callers writing estimates
/// to [begin, begin + slice.size()) are deterministic per worker count.
void ForEachBatchShard(
    const std::vector<const LabeledQuery*>& queries, size_t batch_size,
    ThreadPool* pool,
    const std::function<void(Tape* tape,
                             const std::vector<const LabeledQuery*>& slice,
                             size_t begin)>& per_batch);

class MscnEstimator : public CardinalityEstimator {
 public:
  /// Borrows the model (and the featurizer, which must both outlive the
  /// estimator). `cache_capacity < 0` reads LC_EST_CACHE (default 4096);
  /// 0 disables the result cache.
  MscnEstimator(const Featurizer* featurizer, MscnModel* model,
                std::string display_name = "MSCN",
                int64_t cache_capacity = -1);

  /// Shares ownership of the model — the handle keeps it alive until the
  /// last in-flight estimate over it finishes, even across SwapModel.
  MscnEstimator(const Featurizer* featurizer,
                std::shared_ptr<MscnModel> model,
                std::string display_name = "MSCN",
                int64_t cache_capacity = -1);

  std::string name() const override { return display_name_; }
  const Featurizer* featurizer() const { return featurizer_; }

  double Estimate(const LabeledQuery& query) override;

  /// Batched estimation (much faster than per-query calls); batches are
  /// scored across `pool` (nullptr = inline). Does not consult or fill the
  /// result cache — batch scoring is already cheap per query and skipping
  /// the cache keeps the hot loop lock-free.
  std::vector<double> EstimateAll(
      const std::vector<const LabeledQuery*>& queries, size_t batch_size,
      ThreadPool* pool = ThreadPool::Global());

  /// The serving submit path: estimates `queries` as one batch on the
  /// caller-owned `tape`, consulting and filling the result cache.
  /// `estimates` receives one value per query; `cache_hits` (optional) one
  /// flag per query. Estimates are bit-identical to EstimateAll over the
  /// same queries against the model snapshot that served them: hits replay
  /// a value the same forward-pass math produced earlier under a
  /// generation that is still current, and misses are scored on one
  /// snapshot with padding-masked batching independent of batch
  /// composition. Safe to call from many threads concurrently provided
  /// each caller passes its own tape.
  void EstimateBatch(const std::vector<const LabeledQuery*>& queries,
                     Tape* tape, std::vector<double>* estimates,
                     std::vector<uint8_t>* cache_hits);

  /// Cache-only probe, keyed by Query::CanonicalKey() text: true (and
  /// `*estimate` set) only on a hit that is fresh for the current
  /// publication generation. Never touches the weights. Counts toward the
  /// hit/miss counters only when it hits (a miss is recounted by the
  /// estimate that follows).
  bool ProbeCache(const std::string& canonical_key, double* estimate);

  /// Atomically publishes `fresh` (trained off to the side, e.g. by
  /// Trainer::TrainClone) as the serving model and returns the superseded
  /// one. In-flight estimates finish against the snapshot they loaded; new
  /// estimates see `fresh` under a new, strictly larger generation, so
  /// cached estimates of every earlier publication retire lazily at the
  /// lookup that discovers them — no cache wipe, no stall. `fresh` must
  /// not be mutated once published.
  std::shared_ptr<MscnModel> SwapModel(std::shared_ptr<MscnModel> fresh)
      LC_EXCLUDES(swap_mu_);

  /// The currently published model. The snapshot stays valid for as long
  /// as the caller holds it, even across SwapModel.
  std::shared_ptr<MscnModel> model_snapshot() const {
    return published_.Load()->model;
  }

  /// Hit/miss/eviction counters of the result cache (zeroes when the cache
  /// is disabled). `invalidations` counts lazily retired stale entries.
  CacheCounters cache_counters() const;
  size_t cache_capacity() const { return cache_ ? cache_->capacity() : 0; }

 private:
  /// What the SwapHandle publishes: the model and the generation it was
  /// published under.
  struct Publication {
    std::shared_ptr<MscnModel> model;
    uint64_t generation = 0;
  };

  /// A cached estimate is valid only while the publication it was computed
  /// under is still current.
  struct CachedEstimate {
    uint64_t generation = 0;
    double value = 0.0;
  };

  /// Shared lookup behind ProbeCache (peek: count_miss=false) and the
  /// EstimateBatch miss partition (authoritative: count_miss=true).
  /// Freshness is judged against `generation` — the caller's snapshot, so
  /// one EstimateBatch call is coherent even while a swap lands mid-flight.
  bool LookupFresh(uint64_t generation, const std::string& canonical_key,
                   double* estimate, bool count_miss);

  const Featurizer* featurizer_;
  SwapHandle<const Publication> published_;
  std::string display_name_;
  // Serving workspace, reused across calls so steady-state inference does
  // not allocate tensor storage. Makes single-query Estimate stateful: a
  // single instance must not serve concurrent Estimate calls (EstimateAll
  // and EstimateBatch use caller/shard-owned tapes and are thread-safe).
  Tape tape_;
  // Serializes SwapModel with itself, so the load-increment-publish of the
  // generation cannot interleave between two swappers.
  Mutex swap_mu_;
  // Keyed by the canonical query text itself (not its hash), so a hit is
  // exact by construction.
  std::unique_ptr<ShardedLruCache<std::string, CachedEstimate>> cache_;
};

}  // namespace lc

#endif  // LC_CORE_MSCN_ESTIMATOR_H_
