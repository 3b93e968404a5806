#include "operators/map_op.h"

#include "tuple/batch_pool.h"
#include "util/busy_work.h"
#include "util/logging.h"

namespace flexstream {

MapOp::MapOp(std::string name, MapFn fn, double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      fn_(std::move(fn)),
      simulated_cost_micros_(simulated_cost_micros) {
  CHECK(fn_ != nullptr);
}

MapOp::MapOp(std::string name, Int64ColumnMap map, double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      typed_map_(std::move(map)),
      simulated_cost_micros_(simulated_cost_micros) {
  CHECK(typed_map_.fn != nullptr);
  // Row deliveries rewrite the one attribute through the row accessor.
  fn_ = [attr = typed_map_.attr, f = typed_map_.fn](const Tuple& t) {
    Tuple out = t;
    out.at(attr) = Value(f(out.at(attr).AsInt64()));
    return out;
  };
}

void MapOp::Process(const Tuple& tuple, int port) {
  (void)port;
  if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
  EmitMove(fn_(tuple));
}

void MapOp::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  const Schema& schema = batch->schema();
  if (typed_map_.fn == nullptr || typed_map_.attr >= schema.arity() ||
      schema.type(typed_map_.attr) != Value::Type::kInt64) {
    // Opaque row function (or no typed column): per-row path.
    Operator::ProcessColumnar(std::move(batch), port);
    return;
  }
  const size_t n = batch->size();
  if (simulated_cost_micros_ > 0.0) {
    BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
  }
  int64_t* vals = batch->MutableInts(typed_map_.attr);
  for (size_t i = 0; i < n; ++i) vals[i] = typed_map_.fn(vals[i]);
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
