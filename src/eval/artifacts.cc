#include "eval/artifacts.h"

#include "util/env.h"
#include "util/file.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/str.h"

namespace lc {

namespace {
constexpr uint32_t kHistoryMagic = 0x4c434853;  // "LCHS"
}  // namespace

std::string SerializeHistory(const TrainingHistory& history) {
  BinaryWriter writer;
  writer.WriteU32(kHistoryMagic);
  writer.WriteF64(history.total_seconds);
  writer.WriteU64(history.epochs.size());
  for (const EpochStats& stats : history.epochs) {
    writer.WriteI64(stats.epoch);
    writer.WriteF64(stats.train_loss);
    writer.WriteF64(stats.validation_mean_qerror);
    writer.WriteF64(stats.seconds);
  }
  return std::move(writer.TakeBuffer());
}

StatusOr<TrainingHistory> DeserializeHistory(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0;
  LC_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kHistoryMagic) {
    return Status::Corruption("not a training history");
  }
  TrainingHistory history;
  LC_RETURN_IF_ERROR(reader.ReadF64(&history.total_seconds));
  uint64_t count = 0;
  LC_RETURN_IF_ERROR(reader.ReadU64(&count));
  // Each epoch is four 8-byte fields.
  constexpr size_t kEpochBytes = 4 * 8;
  if (count > reader.remaining() / kEpochBytes) {
    return Status::Corruption("training history epoch count exceeds size");
  }
  history.epochs.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    EpochStats& stats = history.epochs[i];
    int64_t epoch = 0;
    LC_RETURN_IF_ERROR(reader.ReadI64(&epoch));
    stats.epoch = static_cast<int>(epoch);
    LC_RETURN_IF_ERROR(reader.ReadF64(&stats.train_loss));
    LC_RETURN_IF_ERROR(reader.ReadF64(&stats.validation_mean_qerror));
    LC_RETURN_IF_ERROR(reader.ReadF64(&stats.seconds));
  }
  return history;
}

ArtifactCache::ArtifactCache(std::string root) : root_(std::move(root)) {
  if (root_.empty()) {
    root_ = GetEnvString("LC_CACHE_DIR", "build-cache");
  }
  enabled_ = !GetEnvBool("LC_NO_CACHE", false);
  if (enabled_) {
    const Status status = MakeDirs(root_);
    if (!status.ok()) {
      LC_LOG(WARNING) << "artifact cache disabled: " << status;
      enabled_ = false;
    }
  }
}

std::string ArtifactCache::PathFor(const std::string& key,
                                   const std::string& kind) const {
  return PathJoin(root_, HashToHex(Fnv1a64(key)) + "." + kind);
}

Workload ArtifactCache::GetWorkload(const std::string& key,
                                    const std::function<Workload()>& build) {
  const std::string path = PathFor(key, "workload");
  if (enabled_ && FileExists(path)) {
    StatusOr<Workload> loaded = Workload::LoadFromFile(path);
    if (loaded.ok()) {
      LC_LOG(DEBUG) << "loaded workload " << loaded->name << " from "
                    << path;
      return std::move(loaded).value();
    }
    LC_LOG(WARNING) << "ignoring unreadable cache entry " << path << ": "
                    << loaded.status();
  }
  Workload workload = build();
  if (enabled_) {
    const Status status = workload.SaveToFile(path);
    if (!status.ok()) {
      LC_LOG(WARNING) << "could not cache workload: " << status;
    }
  }
  return workload;
}

MscnModel ArtifactCache::GetModel(
    const std::string& key,
    const std::function<MscnModel(TrainingHistory*)>& train,
    TrainingHistory* history) {
  const std::string model_path = PathFor(key, "model");
  const std::string history_path = PathFor(key, "history");
  if (enabled_ && FileExists(model_path) && FileExists(history_path)) {
    StatusOr<MscnModel> model = MscnModel::LoadFromFile(model_path);
    StatusOr<std::string> history_bytes = ReadFileToString(history_path);
    if (model.ok() && history_bytes.ok()) {
      StatusOr<TrainingHistory> loaded_history =
          DeserializeHistory(*history_bytes);
      if (loaded_history.ok()) {
        if (history != nullptr) *history = std::move(loaded_history).value();
        LC_LOG(DEBUG) << "loaded model from " << model_path;
        return std::move(model).value();
      }
    }
    LC_LOG(WARNING) << "ignoring unreadable model cache entry " << model_path;
  }
  TrainingHistory fresh_history;
  MscnModel model = train(&fresh_history);
  if (enabled_) {
    Status status = model.SaveToFile(model_path);
    if (status.ok()) {
      status = WriteStringToFile(history_path,
                                 SerializeHistory(fresh_history));
    }
    if (!status.ok()) {
      LC_LOG(WARNING) << "could not cache model: " << status;
    }
  }
  if (history != nullptr) *history = std::move(fresh_history);
  return model;
}

}  // namespace lc
