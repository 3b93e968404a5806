// Map operator: applies a user function producing exactly one output tuple
// per input tuple (a generalized projection).

#ifndef FLEXSTREAM_OPERATORS_MAP_OP_H_
#define FLEXSTREAM_OPERATORS_MAP_OP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

/// A typed columnar transform over one int64 attribute (DESIGN.md §17):
/// the columnar kernel rewrites the raw column in place; the row path
/// copies the tuple and rewrites the one attribute, so both paths compute
/// the same rows (timestamps and seq stamps ride along unchanged).
struct Int64ColumnMap {
  size_t attr = 0;
  std::function<int64_t(int64_t)> fn;
};

class MapOp : public Operator {
 public:
  using MapFn = std::function<Tuple(const Tuple&)>;

  MapOp(std::string name, MapFn fn, double simulated_cost_micros = 0.0);

  /// Typed form: columnar-native. Batches carrying kInt64 at `map.attr`
  /// are transformed column-at-a-time; everything else goes through the
  /// synthesized row function.
  MapOp(std::string name, Int64ColumnMap map,
        double simulated_cost_micros = 0.0);

  /// The typed form rewrites one attribute in place, so the row layout is
  /// unchanged; the generic form's output shape is opaque.
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override {
    if (typed_map_.fn == nullptr || inputs.empty()) return nullptr;
    return inputs[0];
  }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    if (typed_map_.fn != nullptr) {
      return std::make_unique<MapOp>(std::move(name), typed_map_,
                                     simulated_cost_micros_);
    }
    return std::make_unique<MapOp>(std::move(name), fn_,
                                   simulated_cost_micros_);
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch kernel: rewrites the typed column in place. The generic form
  /// (an opaque row function), or a batch whose schema lacks kInt64 at
  /// the map's attr, takes the per-row path.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  MapFn fn_;
  Int64ColumnMap typed_map_;  // fn == nullptr ⇒ row-form only
  double simulated_cost_micros_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_MAP_OP_H_
