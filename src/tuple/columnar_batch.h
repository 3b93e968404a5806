// The columnar batch: one contiguous typed vector per attribute — the
// engine's only batch unit (DESIGN.md §17).
//
// A ColumnarBatch stores a run of data tuples column-major: int64 and
// double attributes live in contiguous typed vectors, and string
// attributes are (offset, length) pairs into one per-batch bump-allocated
// arena — no per-value heap. Kernels loop over raw typed pointers;
// compaction after a selection moves 8/16-byte entries instead of whole
// Tuples; transporting a batch across a queue moves a handful of vector
// headers instead of N variant rows.
//
// The punctuation-split invariant: a batch only ever holds *data* tuples
// (AppendTuple rejects punctuations). EOS and epoch barriers always travel
// the per-tuple Receive path, and producers flush the batch they are
// building first, so a batch is always entirely on one side of every
// barrier and never reaches fan-in close accounting.
//
// A batch is always convertible back to rows: MaterializeRow / Materialize
// reproduce the exact Tuples that went in, including timestamps and router
// seq stamps, so the per-row fallback path is byte-for-byte exact.

#ifndef FLEXSTREAM_TUPLE_COLUMNAR_BATCH_H_
#define FLEXSTREAM_TUPLE_COLUMNAR_BATCH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/logging.h"

namespace flexstream {

class ColumnarBatch {
 public:
  ColumnarBatch() = default;

  /// Rebinds the batch to `schema`, dropping any rows while keeping the
  /// column storage capacity (the pool's recycling hook).
  void ResetSchema(SchemaPtr schema) {
    Clear();
    if (schema_ != schema) {
      schema_ = std::move(schema);
      cols_.resize(schema_ ? schema_->arity() : 0);
    }
  }

  const SchemaPtr& schema_ptr() const { return schema_; }
  const Schema& schema() const {
    DCHECK(schema_ != nullptr);
    return *schema_;
  }

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Drops all rows, keeping schema and storage capacity.
  void Clear() {
    rows_ = 0;
    for (Column& c : cols_) {
      c.i64.clear();
      c.f64.clear();
      c.str_off.clear();
      c.str_len.clear();
    }
    ts_.clear();
    seqs_.clear();
    arena_.clear();
  }

  // ---------------------------------------------------------------------
  // Building

  /// Appends one data tuple, scattering its attributes into the typed
  /// columns (strings are copied into the arena). Returns false — leaving
  /// the batch untouched — when the tuple does not match the schema; the
  /// caller then flushes this batch and starts a new one, or falls back to
  /// rows. Punctuations are a caller bug (DCHECK).
  bool AppendTuple(const Tuple& tuple) {
    DCHECK(tuple.is_data());
    if (schema_ == nullptr || !schema_->Matches(tuple)) return false;
    for (size_t i = 0; i < cols_.size(); ++i) {
      const Value& v = tuple.at(i);
      switch (schema_->type(i)) {
        case Value::Type::kInt64:
          cols_[i].i64.push_back(v.AsInt64());
          break;
        case Value::Type::kDouble:
          cols_[i].f64.push_back(v.AsDouble());
          break;
        case Value::Type::kString:
          AppendToArena(cols_[i], v.AsString());
          break;
      }
    }
    AppendRowMeta(tuple.timestamp(), tuple.seq());
    return true;
  }

  /// Appends row `row` of `from` (same schema) with seq stamp `seq` — the
  /// Router's scatter. String cells are copied into this batch's arena.
  void AppendRow(const ColumnarBatch& from, size_t row, uint64_t seq) {
    DCHECK(*from.schema_ == *schema_);
    DCHECK(row < from.rows_);
    for (size_t i = 0; i < cols_.size(); ++i) {
      const Column& src = from.cols_[i];
      switch (schema_->type(i)) {
        case Value::Type::kInt64:
          cols_[i].i64.push_back(src.i64[row]);
          break;
        case Value::Type::kDouble:
          cols_[i].f64.push_back(src.f64[row]);
          break;
        case Value::Type::kString:
          AppendToArena(cols_[i], from.StringAt(i, row));
          break;
      }
    }
    AppendRowMeta(from.ts_[row], seq);
  }

  /// Grows every column (and the timestamp vector) to `n` rows, appending
  /// zero / empty-string entries. Builder API for columnar-native sources:
  /// size the batch once, then fill MutableInts / SetString in place.
  void ResizeRows(size_t n) {
    for (size_t i = 0; i < cols_.size(); ++i) {
      switch (schema_->type(i)) {
        case Value::Type::kInt64:
          cols_[i].i64.resize(n, 0);
          break;
        case Value::Type::kDouble:
          cols_[i].f64.resize(n, 0.0);
          break;
        case Value::Type::kString:
          cols_[i].str_off.resize(n, 0);
          cols_[i].str_len.resize(n, 0);
          break;
      }
    }
    ts_.resize(n, 0);
    if (!seqs_.empty()) seqs_.resize(n, 0);
    rows_ = n;
  }

  /// Points string cell (col, row) at a fresh arena copy of `s`.
  void SetString(size_t col, size_t row, std::string_view s) {
    DCHECK(schema_->type(col) == Value::Type::kString);
    DCHECK(row < rows_);
    Column& c = cols_[col];
    c.str_off[row] = static_cast<uint32_t>(arena_.size());
    c.str_len[row] = static_cast<uint32_t>(s.size());
    arena_.insert(arena_.end(), s.begin(), s.end());
  }

  // ---------------------------------------------------------------------
  // Typed access

  const int64_t* Ints(size_t col) const {
    DCHECK(schema_->type(col) == Value::Type::kInt64);
    return cols_[col].i64.data();
  }
  int64_t* MutableInts(size_t col) {
    DCHECK(schema_->type(col) == Value::Type::kInt64);
    return cols_[col].i64.data();
  }
  const double* Doubles(size_t col) const {
    DCHECK(schema_->type(col) == Value::Type::kDouble);
    return cols_[col].f64.data();
  }
  double* MutableDoubles(size_t col) {
    DCHECK(schema_->type(col) == Value::Type::kDouble);
    return cols_[col].f64.data();
  }
  std::string_view StringAt(size_t col, size_t row) const {
    DCHECK(schema_->type(col) == Value::Type::kString);
    const Column& c = cols_[col];
    return std::string_view(arena_.data() + c.str_off[row], c.str_len[row]);
  }

  const AppTime* Timestamps() const { return ts_.data(); }
  AppTime* MutableTimestamps() { return ts_.data(); }

  /// Router seq stamps are kept only when some appended tuple carried one
  /// (seq 0 means "never stamped" — see Tuple::seq()).
  bool has_seqs() const { return !seqs_.empty(); }
  uint64_t SeqAt(size_t row) const { return seqs_.empty() ? 0 : seqs_[row]; }

  /// Drops every row's seq stamp (back to "never stamped"). Kernels that
  /// rebuild rows (Projection) call this to match the row path, which
  /// constructs fresh Tuples with seq 0.
  void ClearSeqs() { seqs_.clear(); }

  /// Stamps rows with the consecutive seqs first, first + 1, ... (the
  /// sequencing Router's bulk stamp).
  void StampSeqs(uint64_t first) {
    seqs_.resize(rows_);
    for (size_t i = 0; i < rows_; ++i) seqs_[i] = first + i;
  }

  // ---------------------------------------------------------------------
  // Row materialization (the fallback contract)

  /// Reconstructs row `i` exactly as appended: values, timestamp, seq.
  Tuple MaterializeRow(size_t row) const {
    DCHECK(row < rows_);
    std::vector<Value> values;
    values.reserve(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      switch (schema_->type(c)) {
        case Value::Type::kInt64:
          values.emplace_back(cols_[c].i64[row]);
          break;
        case Value::Type::kDouble:
          values.emplace_back(cols_[c].f64[row]);
          break;
        case Value::Type::kString:
          values.emplace_back(std::string(StringAt(c, row)));
          break;
      }
    }
    Tuple t(std::move(values), ts_[row]);
    if (!seqs_.empty()) t.set_seq(seqs_[row]);
    return t;
  }

  /// Appends every row to `out` in order.
  void MaterializeInto(std::vector<Tuple>* out) const {
    out->reserve(out->size() + rows_);
    for (size_t i = 0; i < rows_; ++i) out->push_back(MaterializeRow(i));
  }

  std::vector<Tuple> Materialize() const {
    std::vector<Tuple> out;
    MaterializeInto(&out);
    return out;
  }

  // ---------------------------------------------------------------------
  // Kernel primitives

  /// Keeps exactly the rows listed in `keep` (strictly increasing row
  /// indices), moving survivors down over the gaps — Selection's in-place
  /// compaction. String cells keep pointing at the untouched arena, so
  /// compaction moves 8-byte (offset, length) pairs, never string bytes.
  void CompactRows(const uint32_t* keep, size_t n) {
    DCHECK(n <= rows_);
    if (n == rows_) return;
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      Column& c = cols_[ci];
      switch (schema_->type(ci)) {
        case Value::Type::kInt64:
          for (size_t i = 0; i < n; ++i) c.i64[i] = c.i64[keep[i]];
          c.i64.resize(n);
          break;
        case Value::Type::kDouble:
          for (size_t i = 0; i < n; ++i) c.f64[i] = c.f64[keep[i]];
          c.f64.resize(n);
          break;
        case Value::Type::kString:
          for (size_t i = 0; i < n; ++i) {
            c.str_off[i] = c.str_off[keep[i]];
            c.str_len[i] = c.str_len[keep[i]];
          }
          c.str_off.resize(n);
          c.str_len.resize(n);
          break;
      }
    }
    for (size_t i = 0; i < n; ++i) ts_[i] = ts_[keep[i]];
    ts_.resize(n);
    if (!seqs_.empty()) {
      for (size_t i = 0; i < n; ++i) seqs_[i] = seqs_[keep[i]];
      seqs_.resize(n);
    }
    rows_ = n;
  }

  /// Rebinds the batch to the attribute subset `attrs` (Projection's
  /// kernel): output column j becomes input column attrs[j]. The first use
  /// of an input column moves it; repeats copy. The arena is shared, so
  /// projected string columns cost two 4-byte vectors per row, not bytes.
  /// `out_schema` must be the projected schema.
  void ProjectColumns(const std::vector<size_t>& attrs, SchemaPtr out_schema) {
    std::vector<Column> out;
    out.reserve(attrs.size());
    std::vector<bool> moved(cols_.size(), false);
    for (size_t a : attrs) {
      DCHECK(a < cols_.size());
      if (!moved[a]) {
        out.push_back(std::move(cols_[a]));
        moved[a] = true;
      } else {
        out.push_back(out[IndexOfFirst(attrs, a)]);
      }
    }
    cols_ = std::move(out);
    schema_ = std::move(out_schema);
  }

  /// Deep-copies `other`'s rows into this batch (fan-out copies). Vector
  /// copy-assignment reuses this batch's recycled storage when capacity
  /// suffices, so a pooled copy allocates nothing in steady state.
  void CopyFrom(const ColumnarBatch& other) {
    schema_ = other.schema_;
    rows_ = other.rows_;
    cols_ = other.cols_;
    ts_ = other.ts_;
    seqs_ = other.seqs_;
    arena_ = other.arena_;
  }

  /// Bytes currently bump-allocated in the string arena (tests/benches).
  size_t arena_bytes() const { return arena_.size(); }

 private:
  struct Column {
    std::vector<int64_t> i64;
    std::vector<double> f64;
    // String cells: (offset, length) into arena_.
    std::vector<uint32_t> str_off;
    std::vector<uint32_t> str_len;
  };

  static size_t IndexOfFirst(const std::vector<size_t>& attrs, size_t a) {
    for (size_t j = 0;; ++j) {
      if (attrs[j] == a) return j;
    }
  }

  void AppendRowMeta(AppTime timestamp, uint64_t seq) {
    ts_.push_back(timestamp);
    if (seq != 0 && seqs_.empty()) seqs_.resize(rows_, 0);
    if (!seqs_.empty() || seq != 0) seqs_.push_back(seq);
    ++rows_;
  }

  void AppendToArena(Column& c, std::string_view s) {
    DCHECK(arena_.size() + s.size() <= UINT32_MAX);
    c.str_off.push_back(static_cast<uint32_t>(arena_.size()));
    c.str_len.push_back(static_cast<uint32_t>(s.size()));
    arena_.insert(arena_.end(), s.begin(), s.end());
  }

  SchemaPtr schema_;
  size_t rows_ = 0;
  std::vector<Column> cols_;
  std::vector<AppTime> ts_;
  std::vector<uint64_t> seqs_;  // empty ⇒ every row's seq is 0
  std::vector<char> arena_;
};

/// Columnar batches travel the graph boxed: moving one across a queue or
/// between operators is a pointer move, and the pool (batch_pool.h)
/// recycles box and column storage together.
using ColumnarBatchPtr = std::unique_ptr<ColumnarBatch>;

}  // namespace flexstream

#endif  // FLEXSTREAM_TUPLE_COLUMNAR_BATCH_H_
