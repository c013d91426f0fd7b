// Unit tests for storage/: Relation dedup/indexing, Database, CSV IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "storage/csv.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace raqlet {
namespace {

RelationSchema EdgeSchema(const std::string& name = "edge") {
  RelationSchema s;
  s.name = name;
  s.columns = {{"src", ValueType::kNumber}, {"dst", ValueType::kNumber}};
  return s;
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r(EdgeSchema());
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_FALSE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_TRUE(r.Insert({Value::Number(2), Value::Number(1)}).value());
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(2)}));
  EXPECT_FALSE(r.Contains({Value::Number(9), Value::Number(9)}));
}

TEST(RelationTest, PreservesInsertionOrder) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(3), Value::Number(4)});
  r.Insert({Value::Number(1), Value::Number(2)});
  ASSERT_EQ(r.MaterializeRows().size(), 2u);
  EXPECT_EQ(r.MaterializeRows()[0][0].AsNumber(), 3);
  EXPECT_EQ(r.MaterializeRows()[1][0].AsNumber(), 1);
}

TEST(RelationTest, IndexGroupsByKey) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  r.Insert({Value::Number(1), Value::Number(3)});
  r.Insert({Value::Number(2), Value::Number(3)});
  const auto& index = *r.EnsureIndex({0});
  auto it = index.find(Tuple{Value::Number(1)});
  ASSERT_NE(it, index.end());
  EXPECT_EQ(it->second.size(), 2u);
}

TEST(RelationTest, IndexIsMaintainedIncrementally) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const auto& index1 = *r.EnsureIndex({0});
  EXPECT_EQ(index1.size(), 1u);
  // Insert after the index was built; the insert folds it in.
  r.Insert({Value::Number(5), Value::Number(6)});
  const auto& index2 = *r.EnsureIndex({0});
  EXPECT_EQ(index2.size(), 2u);
  auto it = index2.find(Tuple{Value::Number(5)});
  ASSERT_NE(it, index2.end());
  EXPECT_EQ(it->second[0], 1u);
}

TEST(RelationTest, EnsureIndexIsPointerStableAndStaysCurrent) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const Relation::KeyIndex* index = r.EnsureIndex({0});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 1u);
  r.Insert({Value::Number(5), Value::Number(6)});
  // Same cache entry (pointer-stable), folded up to the new rows.
  EXPECT_EQ(r.EnsureIndex({0}), index);
  EXPECT_EQ(index->size(), 2u);
}

// Multi-reader phase of the relation threading contract: with no writer
// active, every const member and EnsureIndex may run concurrently. Each
// thread builds indexes on its own keys while the others read (the tsan
// CI leg checks this for real).
TEST(RelationTest, EnsureIndexIsSafeUnderConcurrentReaders) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 256; ++i) {
    r.Insert({Value::Number(i % 16), Value::Number(i)});
  }
  const std::vector<Tuple> rows = r.MaterializeRows();
  const size_t bytes = r.MemoryBytes();
  const std::vector<std::vector<int>> keys = {{1}, {0, 1}, {1, 0}, {0, 0}};
  std::atomic<size_t> total_hits{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int pass = 0; pass < 50; ++pass) {
        r.EnsureIndex(keys[static_cast<size_t>(t + pass) % keys.size()]);
        const Relation::KeyIndex* index = r.EnsureIndex({0});
        auto it = index->find(Tuple{Value::Number(3)});
        if (it != index->end()) total_hits.fetch_add(it->second.size());
        const size_t row = static_cast<size_t>(pass * 5 + t) % rows.size();
        const bool ok =
            r.size() == rows.size() && r.Contains(rows[row]) &&
            r.Column(1).at(row) == rows[row][1] &&
            r.Column(0).at(row) == rows[row][0] &&
            r.ValueAt(row, 1) == rows[row][1] &&
            r.MaterializeRows(row).front() == rows[row] &&
            r.MemoryBytes() == bytes;
        if (!ok) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(total_hits.load(), 4u * 50u * 16u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(r.EnsureIndex({0, 1})->size(), rows.size());
}

// Every insert checks every row's width before touching anything.
TEST(RelationTest, InsertRejectsWrongWidth) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  // The narrow row goes in twice: the second try must not store it as a
  // new row either.
  for (const Tuple& bad :
       {Tuple{Value::Number(3)}, Tuple{Value::Number(3)},
        Tuple{Value::Number(4), Value::Number(5), Value::Number(6)},
        Tuple{}}) {
    Result<bool> res = r.Insert(bad);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(r.Contains(bad));
  }
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Column(0).size(), 1u);
  EXPECT_EQ(r.Column(1).size(), 1u);
  EXPECT_EQ(r.Column(2).size(), 0u);  // no column grown past arity()
  EXPECT_EQ(r.MaterializeRows(),
            (std::vector<Tuple>{{Value::Number(1), Value::Number(2)}}));
}

TEST(RelationTest, InsertBatchRejectsWrongWidthMidBatch) {
  Relation r(EdgeSchema());
  const Relation::KeyIndex* index = r.EnsureIndex({0});
  const std::vector<Tuple> batch = {
      {Value::Number(1), Value::Number(2)},
      {Value::Number(3)},  // too narrow, after a good row
      {Value::Number(5), Value::Number(6)},
  };
  const std::vector<Tuple> before = batch;
  Result<size_t> res = r.InsertBatch(batch);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(res.status().message().find("row 1 "), std::string::npos)
      << res.status().ToString();
  // Not even the rows before the bad one landed.
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(batch[0]));
  EXPECT_TRUE(index->empty());
  EXPECT_EQ(batch, before);
  ASSERT_TRUE(r.InsertBatch({batch[0], batch[2]}).ok());
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, InsertColumnsRejectsWrongShape) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  std::vector<std::vector<Value>> wide = {
      {Value::Number(3)}, {Value::Number(4)}, {Value::Number(5)}};
  std::vector<std::vector<Value>> narrow = {{Value::Number(3)}};
  // Column 1 ends one row early: a short column in the middle of a batch
  // that otherwise has the all-number pair shape.
  std::vector<std::vector<Value>> ragged = {
      {Value::Number(3), Value::Number(5), Value::Number(7)},
      {Value::Number(4), Value::Number(6)}};
  for (std::vector<std::vector<Value>>* staged : {&wide, &narrow, &ragged}) {
    const std::vector<std::vector<Value>> before = *staged;
    Result<size_t> res = r.InsertColumns(staged);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(*staged, before);  // staged columns not consumed
  }
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.Column(0).size(), 1u);
  EXPECT_EQ(r.Column(1).size(), 1u);
  // No columns at all is the empty batch, not an error.
  std::vector<std::vector<Value>> none;
  EXPECT_EQ(r.InsertColumns(&none).value(), 0u);
}

// Dedup compares kind and raw bits, the equality its hash is built on.
TEST(RelationTest, NanDeduplicatesAndErasesByBits) {
  RelationSchema s;
  s.name = "f";
  s.columns = {{"x", ValueType::kFloat}};
  Relation r(s);
  const Value nan = Value::Float(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(r.Insert({nan}).value());
  EXPECT_FALSE(r.Insert({nan}).value());
  EXPECT_EQ(r.InsertBatch({{nan}, {nan}}).value(), 0u);
  EXPECT_TRUE(r.Contains({nan}));
  // 0.0 and -0.0 differ in their bits, so they stay two rows.
  EXPECT_TRUE(r.Insert({Value::Float(0.0)}).value());
  EXPECT_TRUE(r.Insert({Value::Float(-0.0)}).value());
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.EraseBatch({{nan}, {nan}}).value(), 1u);
  EXPECT_FALSE(r.Contains({nan}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Float(-0.0)}));
}

TEST(RelationTest, InsertBatchDedupsWithinAndAcrossBatches) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  // Batch: duplicate of an existing row, an internal duplicate pair, and
  // two new rows. Order of survivors must be batch order.
  Result<size_t> inserted = r.InsertBatch({
      {Value::Number(1), Value::Number(2)},  // already present
      {Value::Number(3), Value::Number(4)},
      {Value::Number(3), Value::Number(4)},  // duplicate within the batch
      {Value::Number(5), Value::Number(6)},
  });
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 2u);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.MaterializeRows()[1][0].AsNumber(), 3);
  EXPECT_EQ(r.MaterializeRows()[2][0].AsNumber(), 5);
  EXPECT_TRUE(r.Contains({Value::Number(5), Value::Number(6)}));
  EXPECT_FALSE(r.Contains({Value::Number(5), Value::Number(7)}));
  EXPECT_EQ(*r.InsertBatch({}), 0u);  // empty batch is a no-op
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationTest, InsertBatchMatchesTupleAtATimeInsertion) {
  // Randomized equivalence: feeding the same (duplicate-heavy) stream
  // through Insert and through chunked InsertBatch must produce identical
  // contents in identical order.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> pick(0, 15);
  std::vector<Tuple> stream;
  for (int i = 0; i < 500; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  Relation serial(EdgeSchema());
  for (const Tuple& t : stream) serial.Insert(t);
  Relation batched(EdgeSchema("edge2"));
  for (size_t begin = 0; begin < stream.size(); begin += 64) {
    size_t end = std::min(stream.size(), begin + 64);
    batched.InsertBatch(
        std::vector<Tuple>(stream.begin() + begin, stream.begin() + end));
  }
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.MaterializeRows()[i], batched.MaterializeRows()[i])
        << "row " << i;
  }
}

TEST(RelationTest, InsertBatchKeepsCachedIndexesCurrent) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  const Relation::KeyIndex* index = r.EnsureIndex({0});
  EXPECT_EQ(index->size(), 1u);
  // The batch must fold the new suffix into the cached index eagerly —
  // the EnsureIndex pointer stays valid and sees the new keys.
  r.InsertBatch({{Value::Number(1), Value::Number(3)},
                 {Value::Number(7), Value::Number(8)}});
  EXPECT_EQ(r.EnsureIndex({0}), index);
  EXPECT_EQ(index->size(), 2u);
  auto it = index->find(Tuple{Value::Number(1)});
  ASSERT_NE(it, index->end());
  EXPECT_EQ(it->second, (std::vector<uint32_t>{0, 1}));  // ascending rows
}

TEST(RelationTest, InsertBatchWatermarkSurvivesInterleavedIndexUse) {
  // Batches interleaved with EnsureIndex and single inserts:
  // each index entry must be folded exactly once per row regardless of
  // which operation triggers the fold.
  Relation r(EdgeSchema());
  r.InsertBatch({{Value::Number(1), Value::Number(1)},
                 {Value::Number(1), Value::Number(2)}});
  const auto& by_src = *r.EnsureIndex({0});  // built after the first batch
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}).size(), 2u);
  r.Insert({Value::Number(1), Value::Number(3)});
  r.InsertBatch({{Value::Number(1), Value::Number(4)},
                 {Value::Number(2), Value::Number(1)}});
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}).size(), 4u);
  const auto& by_dst = *r.EnsureIndex({1});  // fresh index after both batches
  EXPECT_EQ(by_dst.at(Tuple{Value::Number(1)}).size(), 2u);
  EXPECT_EQ(by_src.at(Tuple{Value::Number(1)}),
            (std::vector<uint32_t>{0, 1, 2, 3}));
  // No double-folded (duplicated) row indices anywhere.
  for (const auto& [key, rows] : by_src) {
    for (size_t i = 1; i < rows.size(); ++i) EXPECT_LT(rows[i - 1], rows[i]);
  }
}

TEST(RelationTest, ClearThenInsertBatchResets) {
  // The Datalog lattice compaction rewrites a relation this way.
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)});
  r.EnsureIndex({0});
  r.Clear();
  r.InsertBatch({{Value::Number(7), Value::Number(8)},
                 {Value::Number(7), Value::Number(8)}});
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({Value::Number(7), Value::Number(8)}));
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Number(2)}));
  EXPECT_EQ(r.EnsureIndex({0})->size(), 1u);
}

TEST(RelationTest, EraseBatchCompactsKeepingRelativeOrder) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 6; ++i) {
    r.Insert({Value::Number(i), Value::Number(i * 10)}).value();
  }
  auto erased = r.EraseBatch({{Value::Number(1), Value::Number(10)},
                              {Value::Number(4), Value::Number(40)}});
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(*erased, 2u);
  ASSERT_EQ(r.size(), 4u);
  // Survivors compacted in place, original relative order intact.
  std::vector<int64_t> srcs;
  for (const Tuple& t : r.MaterializeRows()) srcs.push_back(t[0].AsNumber());
  EXPECT_EQ(srcs, (std::vector<int64_t>{0, 2, 3, 5}));
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Number(10)}));
  EXPECT_TRUE(r.Contains({Value::Number(5), Value::Number(50)}));
}

TEST(RelationTest, EraseBatchIgnoresAbsentWrongArityAndDuplicates) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(3), Value::Number(4)}).value();
  auto erased = r.EraseBatch({
      {Value::Number(9), Value::Number(9)},                   // absent
      {Value::Number(1)},                                     // wrong arity
      {Value::Number(3), Value::Number(4)},                   // present
      {Value::Number(3), Value::Number(4)},                   // duplicate
  });
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(*erased, 1u);
  EXPECT_EQ(r.size(), 1u);
  // Erasing from an empty relation (or with an empty batch) is a no-op.
  EXPECT_EQ(r.EraseBatch({}).value(), 0u);
  r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value();
  EXPECT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 0u);
}

TEST(RelationTest, DeleteThenReinsertBehavesLikeFirstInsert) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(3), Value::Number(4)}).value();
  ASSERT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 1u);
  // The dedup table was rebuilt without a stale entry: re-inserting the
  // erased tuple is fresh and appends at the end.
  EXPECT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  EXPECT_FALSE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.MaterializeRows()[1][0].AsNumber(), 1);
}

TEST(RelationTest, EraseBatchDuringCachedIndexLifetimeRebuildsIndex) {
  Relation r(EdgeSchema());
  r.Insert({Value::Number(1), Value::Number(2)}).value();
  r.Insert({Value::Number(1), Value::Number(3)}).value();
  r.Insert({Value::Number(2), Value::Number(3)}).value();
  // Build and hold an index across the erase; the old pointer is
  // invalidated by contract, so we must re-request it afterwards.
  const auto* before = r.EnsureIndex({0});
  ASSERT_EQ(before->at(Tuple{Value::Number(1)}).size(), 2u);
  ASSERT_EQ(r.EraseBatch({{Value::Number(1), Value::Number(2)}}).value(), 1u);
  const auto* after = r.EnsureIndex({0});
  // Row indices shifted: the index reflects the compacted rows.
  ASSERT_EQ(after->at(Tuple{Value::Number(1)}).size(), 1u);
  EXPECT_EQ(r.ValueAt(after->at(Tuple{Value::Number(1)})[0], 1).AsNumber(), 3);
  EXPECT_EQ(after->count(Tuple{Value::Number(2)}), 1u);
}

TEST(RelationTest, EraseBatchInvalidatesColumnViews) {
  Relation r(EdgeSchema());
  for (int i = 0; i < 4; ++i) {
    r.Insert({Value::Number(i), Value::Number(i + 100)}).value();
  }
  Relation::ColumnView before = r.Column(1);
  ASSERT_EQ(before.size(), 4u);
  ASSERT_EQ(r.EraseBatch({{Value::Number(0), Value::Number(100)},
                          {Value::Number(2), Value::Number(102)}})
                .value(),
            2u);
  // `before` is invalid now (rows shifted); a fresh view sees the
  // compacted column with survivors in order.
  Relation::ColumnView after = r.Column(1);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.at(0).AsNumber(), 101);
  EXPECT_EQ(after.at(1).AsNumber(), 103);
  EXPECT_TRUE(after.uniform_number());
}

TEST(RelationTest, EraseBatchMixedKindColumn) {
  RelationSchema s;
  s.name = "props";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kNumber}};
  Relation r(s);
  // Mix kinds in column 1 so the kind sidecar exists and must be
  // compacted alongside the words.
  r.Insert({Value::Number(1), Value::Number(7)}).value();
  r.Insert({Value::Number(2), Value::Bool(true)}).value();
  r.Insert({Value::Number(3), Value::Null()}).value();
  ASSERT_EQ(r.EraseBatch({{Value::Number(2), Value::Bool(true)}}).value(),
            1u);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(7)}));
  EXPECT_TRUE(r.Contains({Value::Number(3), Value::Null()}));
  EXPECT_FALSE(r.Contains({Value::Number(2), Value::Bool(true)}));
  EXPECT_EQ(r.MaterializeRows()[1][1].kind(), ValueType::kNull);
}

TEST(RelationColumnTest, ColumnViewReadsStoredValuesZeroCopy) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.InsertBatch({{Value::Number(10), Value::Number(20)},
                             {Value::Number(11), Value::Number(21)},
                             {Value::Number(12), Value::Number(22)}})
                  .ok());
  Relation::ColumnView src = r.Column(0);
  Relation::ColumnView dst = r.Column(1);
  ASSERT_EQ(src.size(), 3u);
  EXPECT_EQ(src.at(0).AsNumber(), 10);
  EXPECT_EQ(src.at(2).AsNumber(), 12);
  EXPECT_EQ(dst.at(1).AsNumber(), 21);
  // All-number column with no sidecar: the unboxed fast-path shape.
  EXPECT_TRUE(src.uniform_number());
  ASSERT_NE(src.words(), nullptr);
  EXPECT_EQ(src.kinds(), nullptr);
  EXPECT_EQ(src.words()[1], 11);
  // Views of one column share its storage, and agree with ValueAt.
  EXPECT_EQ(r.Column(0).words(), src.words());
  EXPECT_EQ(src.at(1), r.ValueAt(1, 0));
  EXPECT_EQ(dst.at(2), r.ValueAt(2, 1));
  // Out-of-range column / empty relation: empty view.
  EXPECT_EQ(r.Column(7).size(), 0u);
  EXPECT_EQ(Relation(EdgeSchema()).Column(0).size(), 0u);
}

TEST(RelationColumnTest, MixedKindColumnDegradesToTaggedStorage) {
  RelationSchema s;
  s.name = "mixed";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kNumber}};
  Relation r(s);
  r.Insert({Value::Number(1), Value::Number(5)});
  r.Insert({Value::Number(2), Value::Float(2.5)});  // sidecar materializes
  r.Insert({Value::Number(3), Value::Bool(true)});
  Relation::ColumnView v = r.Column(1);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.uniform_number());
  ASSERT_NE(v.kinds(), nullptr);
  EXPECT_EQ(v.at(0), Value::Number(5));
  EXPECT_EQ(v.at(1), Value::Float(2.5));
  EXPECT_EQ(v.at(2), Value::Bool(true));
  // The key column is untouched by its sibling's degradation.
  EXPECT_TRUE(r.Column(0).uniform_number());
  // Dedup still distinguishes kinds with identical payload bits.
  EXPECT_TRUE(r.Contains({Value::Number(1), Value::Number(5)}));
  EXPECT_FALSE(r.Contains({Value::Number(1), Value::Float(5.0)}) &&
               Value::Number(5) == Value::Float(5.0));
}

TEST(RelationColumnTest, MaterializeRowsMatchesValueAt) {
  Relation r(EdgeSchema());
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)},
                             {Value::Number(5), Value::Number(6)}})
                  .ok());
  std::vector<Tuple> rows = r.MaterializeRows();
  ASSERT_EQ(rows.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], (Tuple{r.ValueAt(i, 0), r.ValueAt(i, 1)}));
  }
  std::vector<Tuple> suffix = r.MaterializeRows(2);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0][0].AsNumber(), 5);
  EXPECT_TRUE(r.MaterializeRows(99).empty());
}

TEST(RelationColumnTest, InsertColumnsRecyclesStagingBuffers) {
  Relation r(EdgeSchema());
  std::vector<std::vector<Value>> staged(2);
  staged[0] = {Value::Number(1), Value::Number(1)};
  staged[1] = {Value::Number(2), Value::Number(2)};
  Result<size_t> inserted = r.InsertColumns(&staged);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 1u);  // in-batch duplicate dropped
  // Staged columns come back cleared (capacity retained) for reuse.
  EXPECT_TRUE(staged[0].empty());
  EXPECT_TRUE(staged[1].empty());
  staged[0] = {Value::Number(1), Value::Number(9)};
  staged[1] = {Value::Number(2), Value::Number(9)};
  inserted = r.InsertColumns(&staged);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(*inserted, 1u);  // cross-batch duplicate dropped
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.MaterializeRows()[1], (Tuple{Value::Number(9), Value::Number(9)}));
}

// ---------------------------------------------------------------------------
// Randomized differential suite: per-tuple Insert, chunked InsertBatch and
// chunked InsertColumns are each checked against a plain model of set
// semantics (first occurrence wins, values equal when their kinds and raw
// bits are) on contents, insertion order, dedup decisions, Contains and
// index row-lists. Runs under the tsan CI filter.
// ---------------------------------------------------------------------------

bool BitEqual(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].kind() != b[c].kind() || a[c].RawBits() != b[c].RawBits()) {
      return false;
    }
  }
  return true;
}

class StorageDifferentialTest : public ::testing::Test {
 protected:
  // The model: the distinct rows of `stream` in first-occurrence order,
  // plus whether each stream tuple was new when it arrived.
  static std::vector<Tuple> Model(const std::vector<Tuple>& stream,
                                  std::vector<bool>* fresh) {
    std::vector<Tuple> rows;
    for (const Tuple& t : stream) {
      bool seen = false;
      for (const Tuple& row : rows) seen = seen || BitEqual(row, t);
      fresh->push_back(!seen);
      if (!seen) rows.push_back(t);
    }
    return rows;
  }

  static void ExpectMatchesModel(const Relation& rel,
                                 const std::vector<Tuple>& model,
                                 const std::vector<Tuple>& stream) {
    SCOPED_TRACE(rel.name());
    const std::vector<Tuple> rows = rel.MaterializeRows();
    ASSERT_EQ(rows.size(), model.size());
    for (size_t i = 0; i < model.size(); ++i) {
      EXPECT_TRUE(BitEqual(rows[i], model[i])) << "row " << i;
      for (size_t c = 0; c < rel.arity(); ++c) {
        EXPECT_TRUE(BitEqual({rel.Column(c).at(i)}, {model[i][c]}))
            << "column view (" << i << ", " << c << ")";
      }
    }
    for (const Tuple& t : stream) EXPECT_TRUE(rel.Contains(t));
    EXPECT_FALSE(rel.Contains(Tuple(rel.arity(), Value::Number(-1000))));
    // Every single-column index files each row exactly once, in ascending
    // order, under a key equal to the row's value (KeyIndex equality is
    // Value::operator==, so a NaN key is found by nothing), and a lookup
    // of any other value finds its row.
    for (size_t c = 0; c < rel.arity(); ++c) {
      const Relation::KeyIndex& index =
          *rel.EnsureIndex({static_cast<int>(c)});
      std::vector<int> filed(model.size(), 0);
      for (const auto& [key, list] : index) {
        for (size_t k = 0; k < list.size(); ++k) {
          ASSERT_LT(list[k], model.size());
          ++filed[list[k]];
          const Value v = rel.ValueAt(list[k], c);
          EXPECT_TRUE(v == key[0] || BitEqual({v}, key));
          if (k > 0) {
            EXPECT_LT(list[k - 1], list[k]);
          }
        }
      }
      for (size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(filed[i], 1) << "row " << i << ", column " << c;
        const Value& v = model[i][c];
        if (!(v == v)) continue;  // NaN
        auto it = index.find(Tuple{v});
        ASSERT_NE(it, index.end()) << "row " << i << ", column " << c;
        EXPECT_NE(std::find(it->second.begin(), it->second.end(), i),
                  it->second.end());
      }
    }
  }

  // Feeds `stream` through per-tuple Insert, chunked InsertBatch, and
  // chunked InsertColumns, then checks all three relations.
  void RunDifferential(const std::vector<Tuple>& stream, size_t arity,
                       size_t chunk) {
    RelationSchema s;
    for (size_t c = 0; c < arity; ++c) {
      s.columns.push_back(Column{"c" + std::to_string(c), ValueType::kNumber});
    }
    s.name = "serial";
    Relation serial(s);
    s.name = "batched";
    Relation batched(s);
    s.name = "columnar";
    Relation columnar(s);
    std::vector<bool> fresh;
    const std::vector<Tuple> model = Model(stream, &fresh);
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(serial.Insert(stream[i]).value(), fresh[i]) << "tuple " << i;
    }
    size_t batched_inserted = 0;
    size_t columnar_inserted = 0;
    for (size_t begin = 0; begin < stream.size(); begin += chunk) {
      size_t end = std::min(stream.size(), begin + chunk);
      Result<size_t> b = batched.InsertBatch(
          std::vector<Tuple>(stream.begin() + static_cast<ptrdiff_t>(begin),
                             stream.begin() + static_cast<ptrdiff_t>(end)));
      ASSERT_TRUE(b.ok());
      batched_inserted += *b;
      std::vector<std::vector<Value>> staged(arity);
      for (size_t i = begin; i < end; ++i) {
        for (size_t c = 0; c < arity; ++c) staged[c].push_back(stream[i][c]);
      }
      Result<size_t> cr = columnar.InsertColumns(&staged);
      ASSERT_TRUE(cr.ok());
      columnar_inserted += *cr;
    }
    EXPECT_EQ(batched_inserted, model.size());
    EXPECT_EQ(columnar_inserted, model.size());
    ExpectMatchesModel(serial, model, stream);
    ExpectMatchesModel(batched, model, stream);
    ExpectMatchesModel(columnar, model, stream);
  }
};

TEST_F(StorageDifferentialTest, PairNumericFastPath) {
  // Arity-2 all-kNumber: the unboxed InsertPairNumeric path, duplicate
  // heavy so dedup decisions genuinely differ per tuple.
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pick(0, 23);
  std::vector<Tuple> stream;
  for (int i = 0; i < 800; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  RunDifferential(stream, 2, 64);
}

TEST_F(StorageDifferentialTest, MixedKindGenericPath) {
  // Arity-3 with floats/bools mixed in: the generic boxed path, including
  // sidecar materialization mid-stream. NaN must dedup with itself, and
  // -0.0 must stay apart from 0.0 (pick() yields 0.0 too).
  std::mt19937 rng(4321);
  std::uniform_int_distribution<int> pick(0, 11);
  std::uniform_int_distribution<int> kind(0, 5);
  auto value = [&]() -> Value {
    switch (kind(rng)) {
      case 0: return Value::Number(pick(rng));
      case 1: return Value::Float(pick(rng) / 2.0);
      case 2: return Value::Bool(pick(rng) % 2 == 0);
      case 3: return Value::Float(std::numeric_limits<double>::quiet_NaN());
      case 4: return Value::Float(-0.0);
      default: return Value::Number(-pick(rng));
    }
  };
  std::vector<Tuple> stream;
  for (int i = 0; i < 600; ++i) {
    stream.push_back({value(), value(), value()});
  }
  RunDifferential(stream, 3, 37);
}

TEST_F(StorageDifferentialTest, TinyChunksMatchWholeBatch) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> pick(0, 9);
  std::vector<Tuple> stream;
  for (int i = 0; i < 200; ++i) {
    stream.push_back({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  RunDifferential(stream, 2, 1);
  RunDifferential(stream, 2, 200);
}

// Relation::Diff against a boxed model: the rows of one side with no
// bit-equal row on the other, as ascending indexes. Value::operator== would
// pair 0.0 with -0.0 and leave NaN rows unmatched; the dedup's bit
// equality does neither.
Relation::RowDiff DiffModel(const Relation& a, const Relation& b) {
  const std::vector<Tuple> rows_a = a.MaterializeRows();
  const std::vector<Tuple> rows_b = b.MaterializeRows();
  auto unmatched = [](const std::vector<Tuple>& from,
                      const std::vector<Tuple>& in) {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < from.size(); ++i) {
      bool found = false;
      for (const Tuple& t : in) found = found || BitEqual(from[i], t);
      if (!found) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  };
  return {unmatched(rows_a, rows_b), unmatched(rows_b, rows_a)};
}

std::unique_ptr<Relation> RelationOf(size_t arity,
                                     const std::vector<Tuple>& rows) {
  RelationSchema s;
  s.name = "r";
  for (size_t c = 0; c < arity; ++c) {
    s.columns.push_back(Column{"c" + std::to_string(c), ValueType::kNumber});
  }
  auto rel = std::make_unique<Relation>(s);
  EXPECT_TRUE(rel->InsertBatch(rows).ok());
  return rel;
}

void ExpectDiffMatchesModel(const Relation& a, const Relation& b) {
  for (const auto& [x, y] : {std::make_pair(&a, &b), std::make_pair(&b, &a)}) {
    const Relation::RowDiff got = x->Diff(*y);
    const Relation::RowDiff want = DiffModel(*x, *y);
    EXPECT_EQ(got.only_here, want.only_here);
    EXPECT_EQ(got.only_there, want.only_there);
  }
}

TEST_F(StorageDifferentialTest, DiffMatchesBoxedModelOnEdgeCases) {
  const Value nan = Value::Float(std::numeric_limits<double>::quiet_NaN());
  const Value zero = Value::Float(0.0);
  const Value neg_zero = Value::Float(-0.0);
  auto n = [](int64_t v) { return Value::Number(v); };
  struct Case {
    const char* name;
    size_t arity;
    std::vector<Tuple> a;
    std::vector<Tuple> b;
    size_t matched;  // rows the two sides share
  };
  const std::vector<Case> cases = {
      {"NaN matches NaN", 1, {{nan}, {Value::Float(1.5)}}, {{nan}}, 1},
      {"0.0 differs from -0.0", 2, {{n(1), zero}, {n(2), zero}},
       {{n(1), neg_zero}, {n(2), zero}}, 1},
      {"kind sidecar", 2, {{n(1), n(2)}, {n(1), Value::Bool(true)}},
       {{n(3), n(4)}, {n(1), Value::Bool(true)}, {n(1), n(2)}}, 2},
      {"pair vs float pair", 2, {{n(1), n(2)}, {n(3), n(4)}},
       {{n(1), Value::Float(2.0)}, {n(3), n(4)}}, 1},
      {"arity 0, both hold the empty row", 0, {{}}, {{}}, 1},
      {"arity 0, one side empty", 0, {{}}, {}, 0},
      {"empty side", 2, {}, {{n(1), n(2)}}, 0},
      {"both empty", 3, {}, {}, 0},
      {"identical, other order", 3,
       {{n(1), nan, zero}, {n(2), neg_zero, n(3)}, {n(4), n(5), n(6)}},
       {{n(4), n(5), n(6)}, {n(1), nan, zero}, {n(2), neg_zero, n(3)}}, 3},
      {"disjoint pairs", 2, {{n(1), n(2)}, {n(3), n(4)}},
       {{n(2), n(1)}, {n(4), n(3)}}, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto a = RelationOf(c.arity, c.a);
    auto b = RelationOf(c.arity, c.b);
    ExpectDiffMatchesModel(*a, *b);
    const Relation::RowDiff d = a->Diff(*b);
    EXPECT_EQ(a->size() - d.only_here.size(), c.matched);
    EXPECT_EQ(b->size() - d.only_there.size(), c.matched);
  }
  // A cleared relation (no dedup table) or one erased down to nothing
  // matches nothing.
  auto pair = RelationOf(2, {{n(1), n(2)}});
  auto cleared = RelationOf(2, {{n(1), n(2)}});
  cleared->Clear();
  ExpectDiffMatchesModel(*cleared, *pair);
  auto erased = RelationOf(2, {{n(1), n(2)}});
  ASSERT_EQ(erased->EraseBatch({{n(1), n(2)}}).value(), 1u);
  ExpectDiffMatchesModel(*erased, *pair);
}

TEST_F(StorageDifferentialTest, DiffMatchesBoxedModelOnRandomRelations) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_int_distribution<int> kind(0, 5);
  auto mixed = [&]() -> Value {
    switch (kind(rng)) {
      case 0: return Value::Float(std::numeric_limits<double>::quiet_NaN());
      case 1: return Value::Float(0.0);
      case 2: return Value::Float(-0.0);
      case 3: return Value::Bool(pick(rng) % 2 == 0);
      default: return Value::Number(pick(rng));
    }
  };
  auto number = [&]() -> Value { return Value::Number(pick(rng)); };
  for (size_t arity = 0; arity <= 3; ++arity) {
    for (bool numbers_only : {true, false}) {
      for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("arity " + std::to_string(arity) + " round " +
                     std::to_string(round) +
                     (numbers_only ? " numbers" : " mixed"));
        std::vector<Tuple> rows[2];
        for (std::vector<Tuple>& side : rows) {
          const int n = std::uniform_int_distribution<int>(0, 30)(rng);
          for (int i = 0; i < n; ++i) {
            Tuple t;
            for (size_t c = 0; c < arity; ++c) {
              t.push_back(numbers_only ? number() : mixed());
            }
            side.push_back(std::move(t));
          }
        }
        auto a = RelationOf(arity, rows[0]);
        auto b = RelationOf(arity, rows[1]);
        ExpectDiffMatchesModel(*a, *b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 32-bit row-index ceiling: batch paths report a Status (relation and
// staged batch unmodified) instead of the legacy abort.
// ---------------------------------------------------------------------------

TEST(RelationOverflowTest, InsertBatchReportsRowLimitAsStatus) {
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(3);
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)}})
                  .ok());
  Result<size_t> res = r.InsertBatch({{Value::Number(5), Value::Number(6)},
                                      {Value::Number(7), Value::Number(8)}});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  EXPECT_NE(res.status().message().find("row-index ceiling"),
            std::string::npos)
      << res.status().ToString();
  // The failed batch left the relation untouched.
  EXPECT_EQ(r.size(), 2u);
  EXPECT_FALSE(r.Contains({Value::Number(5), Value::Number(6)}));
  // A batch that fits still lands.
  ASSERT_TRUE(r.InsertBatch({{Value::Number(5), Value::Number(6)}}).ok());
  EXPECT_EQ(r.size(), 3u);
}

TEST(RelationOverflowTest, CheckIsConservativeBeforeDedup) {
  // The room check counts the whole batch before deduplication: a
  // duplicate-only batch that would not actually grow the relation is
  // still rejected once it could overflow. Loud beats subtly wrong here.
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(2);
  ASSERT_TRUE(r.InsertBatch({{Value::Number(1), Value::Number(2)},
                             {Value::Number(3), Value::Number(4)}})
                  .ok());
  Result<size_t> res = r.InsertBatch({{Value::Number(1), Value::Number(2)}});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationOverflowTest, InsertColumnsReportsAndPreservesStaging) {
  Relation r(EdgeSchema());
  r.SetRowLimitForTesting(1);
  ASSERT_TRUE(r.Insert({Value::Number(1), Value::Number(2)}).value());
  std::vector<std::vector<Value>> staged(2);
  staged[0] = {Value::Number(5)};
  staged[1] = {Value::Number(6)};
  Result<size_t> res = r.InsertColumns(&staged);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
  // On error the staged columns are NOT consumed.
  ASSERT_EQ(staged[0].size(), 1u);
  EXPECT_EQ(staged[0][0], Value::Number(5));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationSchemaTest, ColumnIndex) {
  RelationSchema s = EdgeSchema();
  EXPECT_EQ(s.ColumnIndex("src"), 0);
  EXPECT_EQ(s.ColumnIndex("dst"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
  EXPECT_EQ(s.ToString(), "edge(src: number, dst: number)");
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  auto rel = db.CreateRelation(EdgeSchema());
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(db.HasRelation("edge"));
  EXPECT_FALSE(db.CreateRelation(EdgeSchema()).ok());  // duplicate
  auto missing = db.GetRelation("missing");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.RelationNames(), std::vector<std::string>{"edge"});
}

TEST(DatabaseTest, ApplyDeltaRemovesNan) {
  Database db;
  RelationSchema s;
  s.name = "f";
  s.columns = {{"x", ValueType::kFloat}};
  Relation* rel = *db.CreateRelation(s);
  const Value nan = Value::Float(std::numeric_limits<double>::quiet_NaN());
  const Value one = Value::Float(1.0);
  ASSERT_TRUE(rel->Insert({nan}).value());
  ASSERT_TRUE(rel->Insert({one}).value());

  // Removed and re-added in one delta: a net no-op that keeps the row in
  // place and reports nothing.
  DeltaBatch both;
  both.relations.push_back(RelationDelta{"f", {{nan}}, {{nan}}});
  Result<AppliedDelta> applied = db.ApplyDelta(both);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->total_added, 0u);
  EXPECT_EQ(applied->total_removed, 0u);
  EXPECT_TRUE(applied->relations.empty());
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->ValueAt(0, 0).RawBits(), nan.RawBits());

  // Listed twice in the removes: erased and reported once.
  DeltaBatch twice;
  twice.relations.push_back(RelationDelta{"f", {}, {{nan}, {nan}}});
  applied = db.ApplyDelta(twice);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->total_removed, 1u);
  ASSERT_EQ(applied->relations.size(), 1u);
  EXPECT_EQ(applied->relations[0].removed.size(), 1u);
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_FALSE(rel->Contains({nan}));
  EXPECT_TRUE(rel->Contains({one}));
}

TEST(DatabaseTest, StrInternsSymbols) {
  Database db;
  Value a = db.Str("alpha");
  Value b = db.Str("alpha");
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.symbols().Resolve(a.AsSymbol()), "alpha");
}

TEST(CsvTest, LoadTypedFields) {
  Database db;
  RelationSchema s;
  s.name = "person";
  s.columns = {{"id", ValueType::kNumber},
               {"name", ValueType::kSymbol},
               {"score", ValueType::kFloat}};
  Relation* rel = *db.CreateRelation(s);
  Status st = LoadDelimitedText(&db, rel, "1\tada\t2.5\n2\tbob\t1.0\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->MaterializeRows()[0][1], db.Str("ada"));
  EXPECT_DOUBLE_EQ(rel->MaterializeRows()[0][2].AsFloat(), 2.5);
}

TEST(CsvTest, RejectsArityMismatch) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  Status st = LoadDelimitedText(&db, rel, "1\t2\t3\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsBadNumber) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  Status st = LoadDelimitedText(&db, rel, "1\tnotanumber\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// Out-of-range fields fail instead of saturating to INT64_MAX or inf.
TEST(CsvTest, RejectsOutOfRangeFields) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  Status st = LoadDelimitedText(&db, rel, "1\t99999999999999999999\n");
  ASSERT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1, column 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("'99999999999999999999'"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(rel->size(), 0u);

  RelationSchema s;
  s.name = "f";
  s.columns = {{"x", ValueType::kFloat}};
  Relation* floats = *db.CreateRelation(s);
  EXPECT_EQ(LoadDelimitedText(&db, floats, "1e999\n").code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadDelimitedText(&db, floats, "-1e999\n").code(),
            StatusCode::kParseError);
  // Underflow is not an error: the value rounds towards zero.
  ASSERT_TRUE(LoadDelimitedText(&db, floats, "1e-999\n").ok());
  EXPECT_EQ(floats->ValueAt(0, 0).AsFloat(), 0.0);
}

TEST(CsvTest, ReportsLineColumnAndTokenOfBadField) {
  Database db;
  Relation* rel = *db.CreateRelation(EdgeSchema());
  // Line 2, second field (character column 3 of "3\tx"): the error must
  // pinpoint all three and quote the offending token.
  Status st = LoadDelimitedText(&db, rel, "1\t2\n3\tx\n");
  ASSERT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("column 3"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("field 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("'x'"), std::string::npos) << st.ToString();
  // Errors surface before anything is inserted (batch-parsed load).
  EXPECT_EQ(rel->size(), 0u);
}

TEST(CsvTest, NanFieldsLoadAsOneRow) {
  Database db;
  RelationSchema s;
  s.name = "f";
  s.columns = {{"x", ValueType::kFloat}};
  Relation* rel = *db.CreateRelation(s);
  ASSERT_TRUE(LoadDelimitedText(&db, rel, "nan\nnan\nnan\n").ok());
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(std::isnan(rel->ValueAt(0, 0).AsFloat()));
}

TEST(CsvTest, RoundTrips) {
  Database db;
  RelationSchema s;
  s.name = "r";
  s.columns = {{"id", ValueType::kNumber}, {"name", ValueType::kSymbol}};
  Relation* rel = *db.CreateRelation(s);
  ASSERT_TRUE(LoadDelimitedText(&db, rel, "1\tada\n2\tbob\n").ok());
  EXPECT_EQ(DumpDelimitedText(db, *rel), "1\tada\n2\tbob\n");
}

}  // namespace
}  // namespace raqlet
