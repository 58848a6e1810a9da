#include "workload/workload.h"

#include <algorithm>

#include "util/check.h"
#include "util/file.h"
#include "util/serialize.h"

namespace lc {

LabeledQuery LabelQuery(const Query& query, const Executor* executor,
                        const SampleSet& samples) {
  LabeledQuery labeled;
  labeled.query = query;
  if (executor != nullptr) {
    labeled.cardinality = executor->Cardinality(query);
  }
  labeled.sample_counts.reserve(query.tables.size());
  labeled.sample_bitmaps.reserve(query.tables.size());
  for (TableId table : query.tables) {
    const std::vector<Predicate> predicates = query.PredicatesFor(table);
    const TableSample& sample = samples.sample(table);
    BitVector bitmap = sample.QualifyingBitmap(predicates);
    labeled.sample_counts.push_back(static_cast<int64_t>(bitmap.Count()));
    labeled.sample_bitmaps.push_back(std::move(bitmap));
  }
  // One bitmap per individual predicate (section 5, "More bitmaps"). In a
  // column store these come almost for free during per-column evaluation.
  labeled.predicate_bitmaps.reserve(query.predicates.size());
  for (const Predicate& predicate : query.predicates) {
    labeled.predicate_bitmaps.push_back(
        samples.sample(predicate.table).QualifyingBitmap({predicate}));
  }
  return labeled;
}

std::vector<int> Workload::JoinHistogram(int max_joins) const {
  std::vector<int> histogram(static_cast<size_t>(max_joins) + 1, 0);
  for (const LabeledQuery& labeled : queries) {
    const int joins = std::min(labeled.query.num_joins(), max_joins);
    ++histogram[static_cast<size_t>(joins)];
  }
  return histogram;
}

std::vector<size_t> Workload::QueriesWithJoins(int joins) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].query.num_joins() == joins) indices.push_back(i);
  }
  return indices;
}

int64_t Workload::MaxCardinality() const {
  int64_t max_cardinality = 1;
  for (const LabeledQuery& labeled : queries) {
    max_cardinality = std::max(max_cardinality, labeled.cardinality);
  }
  return max_cardinality;
}

namespace {
constexpr uint32_t kWorkloadMagic = 0x4c435744;  // "LCWD"
constexpr uint32_t kWorkloadVersion = 2;

void WriteBitmap(BinaryWriter* writer, const BitVector& bitmap) {
  writer->WriteU64(bitmap.size());
  writer->WriteString(bitmap.ToBytes());
}

Status ReadBitmap(BinaryReader* reader, BitVector* bitmap) {
  uint64_t bitmap_size = 0;
  LC_RETURN_IF_ERROR(reader->ReadU64(&bitmap_size));
  std::string packed;
  LC_RETURN_IF_ERROR(reader->ReadString(&packed));
  if (!BitVector::FromBytes(bitmap_size, packed, bitmap)) {
    return Status::Corruption("bitmap length mismatch");
  }
  return Status::OK();
}

}  // namespace

std::string Workload::Serialize() const {
  BinaryWriter writer;
  writer.WriteU32(kWorkloadMagic);
  writer.WriteU32(kWorkloadVersion);
  writer.WriteString(name);
  writer.WriteU64(sample_size);
  writer.WriteU64(queries.size());
  for (const LabeledQuery& labeled : queries) {
    writer.WriteString(labeled.query.Serialize());
    writer.WriteI64(labeled.cardinality);
    writer.WriteU64(labeled.sample_counts.size());
    for (size_t i = 0; i < labeled.sample_counts.size(); ++i) {
      writer.WriteI64(labeled.sample_counts[i]);
      WriteBitmap(&writer, labeled.sample_bitmaps[i]);
    }
    writer.WriteU64(labeled.predicate_bitmaps.size());
    for (const BitVector& bitmap : labeled.predicate_bitmaps) {
      WriteBitmap(&writer, bitmap);
    }
  }
  return std::move(writer.TakeBuffer());
}

StatusOr<Workload> Workload::Deserialize(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  LC_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kWorkloadMagic) {
    return Status::Corruption("not a workload file");
  }
  LC_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kWorkloadVersion) {
    return Status::Corruption("unsupported workload version");
  }
  Workload workload;
  LC_RETURN_IF_ERROR(reader.ReadString(&workload.name));
  uint64_t sample_size = 0;
  LC_RETURN_IF_ERROR(reader.ReadU64(&sample_size));
  workload.sample_size = sample_size;
  uint64_t count = 0;
  LC_RETURN_IF_ERROR(reader.ReadU64(&count));
  // Each query takes at least its text's length, its cardinality and its
  // two bitmap counts: four 8-byte fields.
  constexpr size_t kMinQueryBytes = 4 * 8;
  if (count > reader.remaining() / kMinQueryBytes) {
    return Status::Corruption("workload query count exceeds file size");
  }
  workload.queries.reserve(count);
  for (uint64_t q = 0; q < count; ++q) {
    LabeledQuery labeled;
    std::string query_text;
    LC_RETURN_IF_ERROR(reader.ReadString(&query_text));
    LC_ASSIGN_OR_RETURN(labeled.query, Query::Deserialize(query_text));
    LC_RETURN_IF_ERROR(reader.ReadI64(&labeled.cardinality));
    uint64_t num_tables = 0;
    LC_RETURN_IF_ERROR(reader.ReadU64(&num_tables));
    for (uint64_t t = 0; t < num_tables; ++t) {
      int64_t sample_count = 0;
      LC_RETURN_IF_ERROR(reader.ReadI64(&sample_count));
      labeled.sample_counts.push_back(sample_count);
      BitVector bitmap;
      LC_RETURN_IF_ERROR(ReadBitmap(&reader, &bitmap));
      labeled.sample_bitmaps.push_back(std::move(bitmap));
    }
    uint64_t num_predicates = 0;
    LC_RETURN_IF_ERROR(reader.ReadU64(&num_predicates));
    for (uint64_t p = 0; p < num_predicates; ++p) {
      BitVector bitmap;
      LC_RETURN_IF_ERROR(ReadBitmap(&reader, &bitmap));
      labeled.predicate_bitmaps.push_back(std::move(bitmap));
    }
    workload.queries.push_back(std::move(labeled));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing workload bytes");
  return workload;
}

Status Workload::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, Serialize());
}

StatusOr<Workload> Workload::LoadFromFile(const std::string& path) {
  std::string bytes;
  LC_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
  return Deserialize(bytes);
}

}  // namespace lc
