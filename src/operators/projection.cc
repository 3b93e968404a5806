#include "operators/projection.h"

#include "tuple/batch_pool.h"
#include "util/busy_work.h"

namespace flexstream {

Projection::Projection(std::string name, std::vector<size_t> attrs,
                       double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      attrs_(std::move(attrs)),
      simulated_cost_micros_(simulated_cost_micros) {}

SchemaPtr Projection::InferOutputSchema(
    const std::vector<SchemaPtr>& inputs) const {
  if (inputs.empty() || inputs[0] == nullptr) return nullptr;
  if (attrs_.empty()) return inputs[0];
  std::vector<Value::Type> types;
  types.reserve(attrs_.size());
  for (size_t a : attrs_) {
    if (a >= inputs[0]->arity()) return nullptr;
    types.push_back(inputs[0]->type(a));
  }
  return MakeSchema(std::move(types));
}

void Projection::Process(const Tuple& tuple, int port) {
  (void)port;
  if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
  if (attrs_.empty()) {
    Emit(tuple);
    return;
  }
  std::vector<Value> values;
  values.reserve(attrs_.size());
  for (size_t a : attrs_) values.push_back(tuple.at(a));
  EmitMove(Tuple(std::move(values), tuple.timestamp()));
}

void Projection::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  const SchemaPtr& in = batch->schema_ptr();
  for (size_t a : attrs_) {
    if (a >= in->arity()) {
      // Out-of-range attr for this (drifted) schema: the per-row path's
      // accessor checks will report it.
      Operator::ProcessColumnar(std::move(batch), port);
      return;
    }
  }
  if (simulated_cost_micros_ > 0.0) {
    BurnMicros(simulated_cost_micros_ * static_cast<double>(batch->size()));
  }
  if (attrs_.empty()) {
    EmitColumnar(std::move(batch));
    return;
  }
  if (cached_in_ != in) {
    cached_in_ = in;
    std::vector<Value::Type> types;
    types.reserve(attrs_.size());
    for (size_t a : attrs_) types.push_back(in->type(a));
    cached_out_ = MakeSchema(std::move(types));
  }
  batch->ProjectColumns(attrs_, cached_out_);
  batch->ClearSeqs();
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
