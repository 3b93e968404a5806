// Projection operator: keeps a subset of attributes (by index), preserving
// order. Like Selection, can burn a configured per-element CPU cost to
// model the paper's synthetic workloads (the 2.7 us projection of
// Section 6.6).

#ifndef FLEXSTREAM_OPERATORS_PROJECTION_H_
#define FLEXSTREAM_OPERATORS_PROJECTION_H_

#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

class Projection : public Operator {
 public:
  /// `attrs` lists the input attribute indices to keep, in output order.
  /// An empty list means identity (keep all attributes) — useful when the
  /// projection exists purely as a cost stage.
  Projection(std::string name, std::vector<size_t> attrs,
             double simulated_cost_micros = 0.0);

  const std::vector<size_t>& attrs() const { return attrs_; }

  /// Output schema = input schema restricted to `attrs` (identity when
  /// the list is empty).
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override;

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<Projection>(std::move(name), attrs_,
                                        simulated_cost_micros_);
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch kernel: ProjectColumns rebinds the column vector (moving kept
  /// columns, copying repeated ones, sharing the arena) — no per-row work
  /// at all. Seq stamps are dropped to match the per-tuple path, which
  /// builds fresh Tuples.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  std::vector<size_t> attrs_;
  double simulated_cost_micros_;
  // Projected-schema cache keyed on the input batch's SchemaPtr identity:
  // steady-state streams reuse one Schema object, so the projected schema
  // is computed once, not per batch. Serialized under the operator mutex.
  SchemaPtr cached_in_;
  SchemaPtr cached_out_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_PROJECTION_H_
