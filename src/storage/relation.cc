#include "storage/relation.h"

#include <algorithm>
#include <sstream>

#include "common/str_util.h"
#include "runtime/failpoint.h"

namespace raqlet {

namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Finalizer spreading the row hash across slot indices: the table
// indexes with the low bits, so fold the high bits down first.
inline uint32_t MixHash(size_t h) {
  uint64_t x = static_cast<uint64_t>(h) * kGolden;
  return static_cast<uint32_t>(x ^ (x >> 32));
}

// The dedup table's row hash (TupleHash's mix, then MixHash) for anything
// with size() and operator[]: a Tuple or one row of a columnar batch.
template <typename Row>
uint32_t RowHash(const Row& row) {
  size_t h = row.size();
  for (size_t c = 0; c < row.size(); ++c) {
    h ^= row[c].Hash() + kGolden + (h << 6) + (h >> 2);
  }
  return MixHash(h);
}

// RowHash of {Number(a), Number(b)} from the raw payload words. Value::Hash
// for a kNumber is bits + kGolden (the kind term is zero).
inline uint32_t PairNumericHash(int64_t a, int64_t b) {
  size_t h = 2;
  h ^= (static_cast<uint64_t>(a) + kGolden) + kGolden + (h << 6) + (h >> 2);
  h ^= (static_cast<uint64_t>(b) + kGolden) + kGolden + (h << 6) + (h >> 2);
  return MixHash(h);
}

// Row i of a columnar batch, read in place.
struct StagedRow {
  const std::vector<std::vector<Value>>* cols;
  size_t i;
  size_t size() const { return cols->size(); }
  const Value& operator[](size_t c) const { return (*cols)[c][i]; }
};

inline bool AllNumbers(const std::vector<Value>& vals) {
  for (const Value& v : vals) {
    if (v.kind() != ValueType::kNumber) return false;
  }
  return true;
}

}  // namespace

int RelationSchema::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

std::string RelationSchema::ToString() const {
  std::vector<std::string> cols;
  cols.reserve(columns.size());
  for (const Column& c : columns) {
    cols.push_back(c.name + ": " + ValueTypeToString(c.type));
  }
  return name + "(" + Join(cols, ", ") + ")";
}

Status Relation::ReserveRows(size_t extra) {
  const size_t want = row_count_ + extra;
  if (want > row_limit_) {
    return Status::Internal(
        "relation '" + schema_.name + "' would exceed " +
        std::to_string(row_limit_) +
        " rows (32-bit row-index ceiling): " + std::to_string(row_count_) +
        " stored + batch of " + std::to_string(extra));
  }
  // One reservation per insert call; doubling (rather than
  // reserve(size + k) per batch) keeps growth geometric across rounds.
  for (ValueColumn& c : columns_) {
    if (want > c.capacity()) c.Reserve(std::max(want, c.capacity() * 2));
  }
  // Max load factor 1/2: at 7/8 the expected linear-probe chain for a miss
  // (every genuinely-new tuple) is ~32 slot touches; at 1/2 it is ~2.5. A
  // slot is 8 bytes, so even the doubled table stays far smaller than the
  // column storage it guards.
  const size_t capacity = dedup_slots_.size();
  if (capacity >= 16 && want * 2 <= capacity) return Status::OK();
  size_t new_capacity = std::max<size_t>(capacity, 16);
  while (want * 2 > new_capacity) new_capacity *= 2;
  std::vector<DedupSlot> old = std::move(dedup_slots_);
  dedup_slots_.assign(new_capacity, DedupSlot{});
  const size_t mask = new_capacity - 1;
  for (const DedupSlot& slot : old) {
    if (slot.row == kEmptySlot) continue;
    size_t pos = slot.hash & mask;
    while (dedup_slots_[pos].row != kEmptySlot) pos = (pos + 1) & mask;
    dedup_slots_[pos] = slot;
  }
  return Status::OK();
}

struct Relation::StoredRow {
  const ValueColumn* cols;
  size_t width;
  uint32_t i;
  size_t size() const { return width; }
  Value operator[](size_t c) const { return cols[c].Get(i); }
};

template <typename Row>
bool Relation::RowEquals(uint32_t stored, const Row& row) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!columns_[c].BitEquals(stored, row[c])) return false;
  }
  return true;
}

template <typename Row>
uint32_t Relation::DedupProbe(const Row& row, uint32_t h32,
                              size_t* slot_out) const {
  const size_t mask = dedup_slots_.size() - 1;  // size is a power of two
  for (size_t pos = h32 & mask;; pos = (pos + 1) & mask) {
    const DedupSlot& slot = dedup_slots_[pos];
    if (slot.row == kEmptySlot) {
      if (slot_out != nullptr) *slot_out = pos;
      return kEmptySlot;
    }
    if (slot.hash == h32 && RowEquals(slot.row, row)) return slot.row;
  }
}

template <typename RowAt>
Result<size_t> Relation::InsertRows(size_t n, RowAt&& row_at) {
  for (size_t i = 0; i < n; ++i) {
    const size_t width = row_at(i).size();
    if (width != arity()) {
      return Status::InvalidArgument(
          "relation '" + schema_.name + "' has arity " +
          std::to_string(arity()) + ", but row " + std::to_string(i) +
          " of the insert has " + std::to_string(width) + " values");
    }
  }
  RAQLET_RETURN_IF_ERROR(ReserveRows(n));
  size_t inserted = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& row = row_at(i);
    const uint32_t h32 = RowHash(row);
    size_t slot;
    if (DedupProbe(row, h32, &slot) != kEmptySlot) continue;
    for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
    dedup_slots_[slot] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
    ++row_count_;
    ++inserted;
  }
  FoldAllIndexes();
  return inserted;
}

bool Relation::Contains(const Tuple& t) const {
  if (dedup_slots_.empty() || t.size() != arity()) return false;
  return DedupProbe(t, RowHash(t), nullptr) != kEmptySlot;
}

Result<bool> Relation::Insert(const Tuple& t) {
  RAQLET_ASSIGN_OR_RETURN(
      size_t inserted,
      InsertRows(1, [&t](size_t) -> const Tuple& { return t; }));
  return inserted == 1;
}

Result<size_t> Relation::InsertBatch(const std::vector<Tuple>& batch) {
  if (batch.empty()) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.insert_batch");
  return InsertRows(batch.size(),
                    [&batch](size_t i) -> const Tuple& { return batch[i]; });
}

Result<size_t> Relation::InsertColumns(std::vector<std::vector<Value>>* cols) {
  if (cols->empty()) return static_cast<size_t>(0);
  const size_t n = cols->front().size();
  if (cols->size() != arity()) {
    return Status::InvalidArgument(
        "relation '" + schema_.name + "' has arity " +
        std::to_string(arity()) + ", but the insert stages " +
        std::to_string(cols->size()) + " columns");
  }
  for (const std::vector<Value>& col : *cols) {
    if (col.size() != n) {
      return Status::InvalidArgument(
          "relation '" + schema_.name +
          "': staged columns differ in length (" + std::to_string(n) +
          " vs " + std::to_string(col.size()) + ")");
    }
  }
  if (n == 0) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.insert_columns");
  // An empty column never has a kind sidecar, so an empty relation takes
  // any all-number batch.
  const bool pair_numeric = arity() == 2 &&
                            (row_count_ == 0 || PairNumeric()) &&
                            AllNumbers((*cols)[0]) && AllNumbers((*cols)[1]);
  Result<size_t> inserted =
      pair_numeric
          ? InsertPairNumeric((*cols)[0], (*cols)[1])
          : InsertRows(n, [cols](size_t i) { return StagedRow{cols, i}; });
  if (inserted.ok()) {
    for (std::vector<Value>& col : *cols) col.clear();  // capacity retained
  }
  return inserted;
}

// Inline: InsertPairNumeric and Diff call it once per row.
inline uint32_t Relation::PairProbe(int64_t a, int64_t b, uint32_t h32,
                                    size_t* slot_out) const {
  const int64_t* s0 = columns_[0].word_data();
  const int64_t* s1 = columns_[1].word_data();
  const size_t mask = dedup_slots_.size() - 1;
  for (size_t pos = h32 & mask;; pos = (pos + 1) & mask) {
    const DedupSlot& slot = dedup_slots_[pos];
    if (slot.row == kEmptySlot) {
      if (slot_out != nullptr) *slot_out = pos;
      return kEmptySlot;
    }
    if (slot.hash == h32 && s0[slot.row] == a && s1[slot.row] == b) {
      return slot.row;
    }
  }
}

Result<size_t> Relation::InsertPairNumeric(const std::vector<Value>& c0,
                                           const std::vector<Value>& c1) {
  const size_t n = c0.size();
  RAQLET_RETURN_IF_ERROR(ReserveRows(n));
  ValueColumn& col0 = columns_[0];
  ValueColumn& col1 = columns_[1];
  size_t inserted = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = c0[i].RawBits();
    const int64_t b = c1[i].RawBits();
    const uint32_t h32 = PairNumericHash(a, b);
    size_t pos;
    if (PairProbe(a, b, h32, &pos) != kEmptySlot) continue;
    col0.AppendUniform(ValueType::kNumber, a);
    col1.AppendUniform(ValueType::kNumber, b);
    dedup_slots_[pos] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
    ++row_count_;
    ++inserted;
  }
  FoldAllIndexes();
  return inserted;
}

Result<size_t> Relation::EraseBatch(const std::vector<Tuple>& batch) {
  if (batch.empty() || row_count_ == 0) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.erase_batch");
  // Phase 1: probe and tombstone. A tombstoned slot keeps its position in
  // the table so linear-probe chains running through it stay intact —
  // later candidates of the same batch whose chains pass the erased slot
  // still find their rows. The shared DedupProbe stops at the first empty
  // slot and compares against live rows only, so this phase runs its own
  // probe loop that skips (rather than stops at) tombstones.
  static constexpr uint32_t kTombstone = kEmptySlot - 1;
  const size_t mask = dedup_slots_.size() - 1;
  std::vector<uint32_t> dead_rows;
  for (const Tuple& t : batch) {
    if (t.size() != arity()) continue;  // wrong arity: never present
    const uint32_t h32 = RowHash(t);
    size_t pos = h32 & mask;
    while (true) {
      DedupSlot& slot = dedup_slots_[pos];
      if (slot.row == kEmptySlot) break;  // absent (or erased earlier)
      if (slot.row != kTombstone && slot.hash == h32 &&
          RowEquals(slot.row, t)) {
        dead_rows.push_back(slot.row);
        slot.row = kTombstone;
        break;
      }
      pos = (pos + 1) & mask;
    }
  }
  if (dead_rows.empty()) return static_cast<size_t>(0);
  // Phase 2: compact the columns (survivors keep relative order) and
  // rebuild the dedup table from the survivors in place. Indexes are
  // watermark-folded over the old row indices, so they are dropped.
  std::vector<uint8_t> dead(row_count_, 0);
  for (uint32_t r : dead_rows) dead[r] = 1;
  for (ValueColumn& c : columns_) c.EraseRows(dead);
  row_count_ -= dead_rows.size();
  index_cache_.clear();
  std::fill(dedup_slots_.begin(), dedup_slots_.end(), DedupSlot{});
  for (uint32_t i = 0; i < row_count_; ++i) {
    const uint32_t h32 = RowHash(StoredRow{columns_.data(), arity(), i});
    size_t pos = h32 & mask;
    while (dedup_slots_[pos].row != kEmptySlot) pos = (pos + 1) & mask;
    dedup_slots_[pos] = DedupSlot{h32, i};
  }
  return dead_rows.size();
}

bool Relation::PairNumeric() const {
  return arity() == 2 && columns_[0].uniform() && columns_[1].uniform() &&
         columns_[0].uniform_kind() == ValueType::kNumber &&
         columns_[1].uniform_kind() == ValueType::kNumber;
}

Relation::RowDiff Relation::Diff(const Relation& other) const {
  RowDiff out;
  std::vector<uint8_t> matched(row_count_, 0);
  // A relation that never stored a row has no dedup table to probe.
  const bool probe = !dedup_slots_.empty();
  // Both sides raw-word pairs: hash and compare the words, as
  // InsertPairNumeric does.
  const bool pair = probe && PairNumeric() && other.PairNumeric();
  const int64_t* o0 = pair ? other.columns_[0].word_data() : nullptr;
  const int64_t* o1 = pair ? other.columns_[1].word_data() : nullptr;
  for (uint32_t i = 0; i < other.row_count_; ++i) {
    uint32_t match = kEmptySlot;
    if (pair) {
      match = PairProbe(o0[i], o1[i], PairNumericHash(o0[i], o1[i]), nullptr);
    } else if (probe) {
      const StoredRow row{other.columns_.data(), arity(), i};
      match = DedupProbe(row, RowHash(row), nullptr);
    }
    if (match == kEmptySlot) {
      out.only_there.push_back(i);
    } else {
      matched[match] = 1;
    }
  }
  for (uint32_t r = 0; r < row_count_; ++r) {
    if (matched[r] == 0) out.only_here.push_back(r);
  }
  return out;
}

std::vector<Tuple> Relation::MaterializeRows(size_t begin) const {
  std::vector<Tuple> out;
  if (begin >= row_count_) return out;
  out.reserve(row_count_ - begin);
  for (size_t i = begin; i < row_count_; ++i) {
    Tuple t;
    t.reserve(columns_.size());
    for (const ValueColumn& c : columns_) t.push_back(c.Get(i));
    out.push_back(std::move(t));
  }
  return out;
}

Relation::ColumnView Relation::Column(size_t col) const {
  ColumnView v;
  if (col >= columns_.size() || row_count_ == 0) return v;
  const ValueColumn& c = columns_[col];
  v.words_ = c.word_data();
  v.kinds_ = c.kind_data();
  v.kind_ = c.uniform_kind();
  v.size_ = row_count_;
  return v;
}

void Relation::Clear() {
  for (ValueColumn& c : columns_) c.Clear();
  row_count_ = 0;
  dedup_slots_.clear();
  index_cache_.clear();
}

const Relation::KeyIndex* Relation::EnsureIndex(
    const std::vector<int>& key_columns) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = index_cache_.try_emplace(key_columns).first;
  FoldSuffix(it->first, &it->second);
  return &it->second.index;
}

void Relation::FoldSuffix(const std::vector<int>& key_columns,
                          CachedIndex* cached) const {
  RAQLET_FAILPOINT_DELAY("storage.index_build");
  for (uint32_t i = static_cast<uint32_t>(cached->rows_indexed);
       i < row_count_; ++i) {
    Tuple key;
    key.reserve(key_columns.size());
    for (int c : key_columns) {
      key.push_back(columns_[static_cast<size_t>(c)].Get(i));
    }
    cached->index[std::move(key)].push_back(i);
  }
  cached->rows_indexed = row_count_;
}

void Relation::FoldAllIndexes() {
  // One fold per cached index for the whole insert, so interleaved probe
  // sites never re-fold tuple by tuple.
  for (auto& [key_columns, cached] : index_cache_) {
    FoldSuffix(key_columns, &cached);
  }
}

size_t Relation::MemoryBytes() const {
  size_t bytes = dedup_slots_.capacity() * sizeof(DedupSlot);
  for (const ValueColumn& c : columns_) bytes += c.MemoryBytes();
  return bytes;
}

std::string Relation::ToString(const SymbolTable* symbols) const {
  std::ostringstream os;
  os << schema_.ToString() << " [" << row_count_ << " rows]\n";
  for (const Tuple& t : MaterializeRows()) {
    os << "  " << TupleToString(t, symbols) << "\n";
  }
  return os.str();
}

}  // namespace raqlet
