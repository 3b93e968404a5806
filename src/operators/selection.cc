#include "operators/selection.h"

#include "tuple/batch_pool.h"
#include "util/busy_work.h"
#include "util/logging.h"

namespace flexstream {

Selection::Selection(std::string name, Predicate predicate,
                     double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      predicate_(std::move(predicate)),
      simulated_cost_micros_(simulated_cost_micros) {
  CHECK(predicate_ != nullptr);
}

Selection::Selection(std::string name, Int64ColumnPredicate pred,
                     double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      typed_pred_(std::move(pred)),
      simulated_cost_micros_(simulated_cost_micros) {
  CHECK(typed_pred_.fn != nullptr);
  // Row deliveries evaluate the same function through the row accessor.
  predicate_ = [attr = typed_pred_.attr, fn = typed_pred_.fn](const Tuple& t) {
    return fn(t.IntAt(attr));
  };
}

Selection::Predicate Selection::IntAttrLessThan(int64_t threshold,
                                                size_t attr) {
  return [threshold, attr](const Tuple& t) {
    return t.IntAt(attr) < threshold;
  };
}

Int64ColumnPredicate Selection::ColumnIntLessThan(int64_t threshold,
                                                  size_t attr) {
  return Int64ColumnPredicate{
      attr, [threshold](int64_t v) { return v < threshold; }};
}

void Selection::Process(const Tuple& tuple, int port) {
  (void)port;
  if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
  if (predicate_(tuple)) Emit(tuple);
}

void Selection::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const size_t n = batch->size();
  if (simulated_cost_micros_ > 0.0) {
    BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
  }
  keep_.clear();
  keep_.reserve(n);
  const Schema& schema = batch->schema();
  if (typed_pred_.fn != nullptr && typed_pred_.attr < schema.arity() &&
      schema.type(typed_pred_.attr) == Value::Type::kInt64) {
    const int64_t* vals = batch->Ints(typed_pred_.attr);
    for (size_t i = 0; i < n; ++i) {
      if (typed_pred_.fn(vals[i])) keep_.push_back(static_cast<uint32_t>(i));
    }
  } else {
    // Row-form predicate (or a schema without the typed column): evaluate
    // it on each materialized row, but still compact and forward the
    // batch whole.
    for (size_t i = 0; i < n; ++i) {
      if (predicate_(batch->MaterializeRow(i))) {
        keep_.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (keep_.empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  batch->CompactRows(keep_.data(), keep_.size());
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
