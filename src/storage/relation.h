#ifndef RAQLET_STORAGE_RELATION_H_
#define RAQLET_STORAGE_RELATION_H_

// Set-semantics columnar tuple storage shared by the Datalog, SQL, and
// graph engines and by the EDB loaders. Insertion order is preserved (the
// semi-naive evaluator identifies deltas as suffixes of the row index
// space).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace raqlet {

/// A named column with a logical type.
struct Column {
  std::string name;
  ValueType type = ValueType::kNumber;
};

/// Schema of a stored relation. `primary_key` lists column positions that
/// form a key (used by semantic join elimination); empty means unknown.
struct RelationSchema {
  std::string name;
  std::vector<Column> columns;
  std::vector<int> primary_key;

  size_t arity() const { return columns.size(); }
  /// Position of a column by name, or -1.
  int ColumnIndex(const std::string& column_name) const;
  std::string ToString() const;
};

/// A deduplicated, insertion-ordered set of tuples of fixed arity, stored
/// column-wise (structure of arrays).
///
/// ## API
///
/// Writes: Insert (one row), InsertBatch (rows), InsertColumns (staged
/// columns), EraseBatch and Clear. Reads: the Column and ValueAt views,
/// MaterializeRows (boxed copies), Contains, Diff (against another
/// relation), and EnsureIndex, the one hash-index entry point.
///
/// ## Layout
///
/// Each schema column is one ValueColumn: a dense array of raw 64-bit
/// payload words plus a kind tag. While every value in a column shares one
/// ValueType (the common case; the 2-column edge/TC shape is two uniform
/// kNumber columns) there is no per-row kind array and a stored value
/// costs 8 bytes. The first kind-mismatched append materializes a
/// byte-per-row kind sidecar (9 bytes/value from then on).
///
/// ## Dedup
///
/// Duplicate elimination is a flat open-addressing table of
/// (hash32, row-index) slots with linear probing; it stores no tuples, and
/// probes compare candidates against the column arrays directly. Two
/// values are the same when their kinds and raw payload words are equal —
/// the equality the row hash is built on. So NaN equals a NaN with the
/// same bits, and 0.0 and -0.0 are distinct rows. The three inserts share
/// one dedup-and-append core and decide in batch order: the first
/// occurrence of a duplicate wins, in the relation or earlier in the
/// batch. A row whose width differs from arity() is rejected with
/// InvalidArgument before anything is touched.
///
/// ## Borrowing contract
///
/// Column(c) returns a zero-copy ColumnView handle into the live column
/// arrays. A view is valid only until the next mutation of the relation
/// (Insert / InsertBatch / InsertColumns / EraseBatch / Clear /
/// ResetSchema), which may reallocate the arrays or materialize a kind
/// sidecar; executors therefore re-borrow at plan/batch-build time each
/// round. The KeyIndex pointer EnsureIndex returns survives inserts (they
/// fold their rows into every cached index) but not EraseBatch / Clear /
/// ResetSchema, which drop the indexes.
///
/// ## Threading contract (single writer / multiple readers)
///
/// At most one thread may mutate a Relation, and while it does, no other
/// thread may touch the relation at all. The writer need not be the same
/// thread every time: the parallel evaluator's sharded merge hands each
/// relation's staged run to one pool task per round, so distinct
/// relations may be mutated by distinct threads concurrently as long as
/// each has one writer and no concurrent readers. Between mutations any
/// number of threads may call every const member concurrently, EnsureIndex
/// included (it serializes index construction internally).
class Relation {
 public:
  /// Zero-copy read-only view of one stored column. `at(i)` re-boxes the
  /// i-th value. Invalidated by the next mutation of the owning relation
  /// (see the borrowing contract above).
  class ColumnView {
   public:
    ColumnView() = default;

    size_t size() const { return size_; }

    Value at(size_t i) const {
      return Value::FromRaw(
          kinds_ != nullptr ? static_cast<ValueType>(kinds_[i]) : kind_,
          words_[i]);
    }

    /// Raw unboxed payload words (64-bit, floats bit-cast).
    const int64_t* words() const { return words_; }
    /// Per-row kind tags, or nullptr when the column is uniformly `kind()`.
    const uint8_t* kinds() const { return kinds_; }
    /// The shared ValueType when kinds() == nullptr.
    ValueType kind() const { return kind_; }
    /// True when every value is a kNumber with no kind sidecar — the
    /// unboxed fast-path shape.
    bool uniform_number() const {
      return kinds_ == nullptr && kind_ == ValueType::kNumber;
    }

   private:
    friend class Relation;
    const int64_t* words_ = nullptr;
    const uint8_t* kinds_ = nullptr;
    ValueType kind_ = ValueType::kNull;
    size_t size_ = 0;
  };

  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {
    columns_.resize(schema_.arity());
  }

  /// Clears all rows and replaces the schema (and column layout). For
  /// callers that materialize derived relations into a shared Database
  /// and reuse a name across programs whose declarations differ: a bare
  /// Clear() keeps the old schema, so arity()-driven readers (column
  /// borrowing) would see a stale width once the new program inserts.
  void ResetSchema(RelationSchema schema) {
    Clear();
    schema_ = std::move(schema);
    columns_.assign(schema_.arity(), ValueColumn());
  }

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  /// Inserts `t` if not already present and returns whether it was new.
  /// Fails with the relation unmodified if `t` does not have arity()
  /// values (InvalidArgument) or at the 2^32-1 row-index ceiling.
  Result<bool> Insert(const Tuple& t);

  /// Appends every tuple of `batch` not already present (in the relation
  /// or earlier in the batch), in batch order, and returns how many were
  /// appended. Folds the new rows into every cached index once for the
  /// whole batch. Fails with the relation unmodified if any tuple has the
  /// wrong width, or if the batch could overflow the 32-bit row-index
  /// space (the check counts the whole batch, before deduplication).
  Result<size_t> InsertBatch(const std::vector<Tuple>& batch);

  /// Columnar InsertBatch: `(*cols)[c][i]` is row i of column c. Needs
  /// arity() columns of equal length; an empty `*cols` is an empty batch.
  /// Same dedup decisions, order and errors as InsertBatch on the same
  /// rows. On success every staged column is left cleared with its
  /// capacity intact, so callers can recycle their staging buffers; on
  /// error the relation and the staged columns are unmodified. The
  /// 2-column all-kNumber shape (transitive closure) takes an unboxed path
  /// that hashes and compares raw words.
  Result<size_t> InsertColumns(std::vector<std::vector<Value>>* cols);

  /// Deletes every tuple of `batch` that is currently present and returns
  /// the number of rows actually erased (absent tuples and wrong-arity
  /// tuples are ignored; duplicates in the batch erase once).
  ///
  /// Survivors are compacted in place and keep their relative order, but
  /// their row indices shift, so every cached KeyIndex and borrowed
  /// ColumnView is invalidated. A delete-then-re-insert of the same tuple
  /// behaves exactly like a first-time insert. Never fails today; returns
  /// Result for symmetry with the inserts and for fault injection
  /// ("storage.erase_batch").
  Result<size_t> EraseBatch(const std::vector<Tuple>& batch);

  bool Contains(const Tuple& t) const;

  /// The rows each side of a diff holds that the other lacks, as
  /// ascending row indexes.
  struct RowDiff {
    std::vector<uint32_t> only_here;   // rows of this relation
    std::vector<uint32_t> only_there;  // rows of the other relation
  };

  /// Diffs this relation against `other`, which must have the same arity,
  /// in one pass without boxing: each row of `other` probes this
  /// relation's dedup table from its raw column words. Rows match by the
  /// dedup's bit equality, exactly as Contains decides: a NaN matches a
  /// NaN with the same bits, and 0.0 and -0.0 differ.
  RowDiff Diff(const Relation& other) const;

  /// Fresh boxed copies of rows [begin, size()), in insertion order.
  std::vector<Tuple> MaterializeRows(size_t begin = 0) const;

  /// Zero-copy view of column `col` (all rows). Returns an empty view for
  /// out-of-range columns. See the borrowing contract above.
  ColumnView Column(size_t col) const;

  /// Boxes the single value at (row, col).
  Value ValueAt(size_t row, size_t col) const {
    return columns_[col].Get(row);
  }

  void Clear();

  /// Hash index from the projection of each row onto `key_columns` to the
  /// list of row indices with that key, in ascending (insertion) order —
  /// the semi-naive evaluator's deterministic merge relies on this.
  ///
  /// Join keys follow `=` (Value::operator==), not the dedup's bit
  /// equality: 0.0 and -0.0 are one key (two stored rows, one entry), and
  /// a NaN key is found by no probe, as NaN = NaN is false, and each NaN
  /// row gets an entry of its own.
  using KeyIndex = std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>;

  /// Builds (or returns the cached) index for `key_columns`. Indexes are
  /// cached per key and maintained incrementally: inserts fold their new
  /// rows into every cached index, so interleaving inserts and probes
  /// (semi-naive evaluation) stays linear. The pointer stays valid until
  /// the next EraseBatch / Clear / ResetSchema, and the index is safe to
  /// probe lock-free while no writer is active. Thread-safe under the
  /// multi-reader phase.
  const KeyIndex* EnsureIndex(const std::vector<int>& key_columns) const;

  /// Bytes of heap held by the column arrays, kind sidecars and dedup
  /// table. Cached KeyIndexes are not counted (node-based unordered_map
  /// sizing is opaque). Drives the bytes_per_tuple bench counter.
  size_t MemoryBytes() const;

  /// Testing hook: lowers the row-count ceiling (default 2^32-2) so the
  /// overflow Status path is exercisable without inserting 4 billion rows.
  void SetRowLimitForTesting(size_t limit) { row_limit_ = limit; }

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  // One stored column: unboxed payload words plus a lazy kind sidecar
  // (empty while every value shares kind_).
  class ValueColumn {
   public:
    size_t size() const { return words_.size(); }

    ValueType KindAt(size_t i) const {
      return kinds_.empty() ? kind_ : static_cast<ValueType>(kinds_[i]);
    }

    Value Get(size_t i) const { return Value::FromRaw(KindAt(i), words_[i]); }

    // Dedup equality: same kind and same raw payload word.
    bool BitEquals(size_t i, const Value& v) const {
      return words_[i] == v.RawBits() && KindAt(i) == v.kind();
    }

    void Append(const Value& v) {
      if (words_.empty()) {
        kind_ = v.kind();
      } else if (kinds_.empty() && v.kind() != kind_) {
        // First mixed-kind append: materialize the sidecar for the
        // existing uniform prefix.
        kinds_.assign(words_.size(), static_cast<uint8_t>(kind_));
      }
      if (!kinds_.empty()) kinds_.push_back(static_cast<uint8_t>(v.kind()));
      words_.push_back(v.RawBits());
    }

    // Unboxed append. Precondition: the column is empty or uniformly of
    // kind `k` (no sidecar).
    void AppendUniform(ValueType k, int64_t word) {
      if (words_.empty()) kind_ = k;
      words_.push_back(word);
    }

    void Reserve(size_t n) {
      words_.reserve(n);
      if (!kinds_.empty()) kinds_.reserve(n);
    }

    void Clear() {
      words_.clear();
      kinds_.clear();
      kind_ = ValueType::kNull;
    }

    // Compacts away every row r with dead[r] != 0, preserving survivor
    // order. The kind sidecar (if materialized) is compacted in lockstep;
    // it is not de-materialized even if the survivors happen to be
    // uniform again.
    void EraseRows(const std::vector<uint8_t>& dead) {
      size_t w = 0;
      for (size_t r = 0; r < words_.size(); ++r) {
        if (dead[r] != 0) continue;
        words_[w] = words_[r];
        if (!kinds_.empty()) kinds_[w] = kinds_[r];
        ++w;
      }
      words_.resize(w);
      if (!kinds_.empty()) kinds_.resize(w);
    }

    bool uniform() const { return kinds_.empty(); }
    ValueType uniform_kind() const { return kind_; }
    size_t capacity() const { return words_.capacity(); }
    const int64_t* word_data() const { return words_.data(); }
    const uint8_t* kind_data() const {
      return kinds_.empty() ? nullptr : kinds_.data();
    }
    size_t MemoryBytes() const {
      return words_.capacity() * sizeof(int64_t) + kinds_.capacity();
    }

   private:
    std::vector<int64_t> words_;
    std::vector<uint8_t> kinds_;  // empty while uniform
    ValueType kind_ = ValueType::kNull;
  };

  // The dedup structure stores row indices rather than tuple copies:
  // values are stored exactly once (in the columns). A duplicate check
  // costs one cache line of slot metadata plus (only on a hash match) one
  // column-wise row comparison. Rehashing re-seats the cached hashes
  // without touching any value.
  struct DedupSlot {
    uint32_t hash = 0;
    uint32_t row = kEmptySlot;
  };
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  // The dedup-and-append core of all three inserts. `row_at(i)` yields
  // row i of an n-row batch as anything with size() and operator[].
  template <typename RowAt>
  Result<size_t> InsertRows(size_t n, RowAt&& row_at);

  // Probes for `row` (of width arity(), hash `h32`). Returns the matching
  // row index, or kEmptySlot if absent — in which case *slot_out is the
  // insertion position (valid until the table grows).
  template <typename Row>
  uint32_t DedupProbe(const Row& row, uint32_t h32, size_t* slot_out) const;

  template <typename Row>
  bool RowEquals(uint32_t stored, const Row& row) const;

  // Fails (relation untouched) if `extra` more rows could pass the
  // 32-bit row-index ceiling or the injected test limit; otherwise
  // reserves column and dedup-table room for them.
  Status ReserveRows(size_t extra);

  // A stored row read in place, for rehashing after a compaction and for
  // probing another relation's dedup table.
  struct StoredRow;

  // True when the stored rows have the 2-column all-kNumber shape with no
  // kind sidecar, so raw words alone decide equality.
  bool PairNumeric() const;

  // DedupProbe for the PairNumeric shape, from raw words: the row holding
  // (a, b), whose hash is h32, or kEmptySlot.
  uint32_t PairProbe(int64_t a, int64_t b, uint32_t h32,
                     size_t* slot_out) const;

  // Unboxed arity-2 all-kNumber batch insert; returns tuples admitted.
  Result<size_t> InsertPairNumeric(const std::vector<Value>& c0,
                                   const std::vector<Value>& c1);

  struct CachedIndex {
    KeyIndex index;
    size_t rows_indexed = 0;  // watermark into the row index space
  };

  // Folds rows [cached->rows_indexed, row_count_) into `cached`.
  void FoldSuffix(const std::vector<int>& key_columns,
                  CachedIndex* cached) const;
  // Folds every cached index up to row_count_ (once per insert call).
  void FoldAllIndexes();

  RelationSchema schema_;
  size_t row_count_ = 0;
  std::vector<ValueColumn> columns_;  // one per schema column
  std::vector<DedupSlot> dedup_slots_;  // size is a power of two (or 0)
  size_t row_limit_ = static_cast<size_t>(kEmptySlot) - 1;
  // Keyed by the index's key columns; map nodes keep EnsureIndex pointers
  // stable. Mutable: index construction is a logically-const acceleration
  // structure, guarded by index_mutex_ on the EnsureIndex path and owned
  // by the writer otherwise (see the threading contract).
  mutable std::map<std::vector<int>, CachedIndex> index_cache_;
  mutable std::mutex index_mutex_;
};

}  // namespace raqlet

#endif  // RAQLET_STORAGE_RELATION_H_
