// Selection (filter) operator.
//
// The workhorse of the paper's evaluation: Sections 6.4–6.6 build queries
// from chains of selections with precise selectivities and processing
// costs. `simulated_cost_micros` burns calibrated CPU per element to model
// "complex predicate evaluation" (the 2-second selection of Section 6.6).

#ifndef FLEXSTREAM_OPERATORS_SELECTION_H_
#define FLEXSTREAM_OPERATORS_SELECTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

/// A typed columnar predicate over one int64 attribute (DESIGN.md §17):
/// the columnar kernel evaluates `fn` over the raw column and compacts the
/// batch in place through a selection vector; the row path wraps it as
/// `fn(tuple.IntAt(attr))`, so both paths are the same predicate.
struct Int64ColumnPredicate {
  size_t attr = 0;
  std::function<bool(int64_t)> fn;
};

class Selection : public Operator {
 public:
  using Predicate = std::function<bool(const Tuple&)>;

  Selection(std::string name, Predicate predicate,
            double simulated_cost_micros = 0.0);

  /// Typed form: columnar-native. Batches whose schema carries kInt64 at
  /// `pred.attr` are filtered column-at-a-time; anything else (including
  /// every row-wise delivery) goes through the synthesized row predicate,
  /// so answers are identical either way.
  Selection(std::string name, Int64ColumnPredicate pred,
            double simulated_cost_micros = 0.0);

  /// Convenience: selects tuples whose integer attribute 0 lies in
  /// [0, threshold) given values uniform in [0, domain) — yielding
  /// selectivity = threshold / domain exactly as the paper's synthetic
  /// queries do.
  static Predicate IntAttrLessThan(int64_t threshold, size_t attr = 0);

  /// The typed-column twin of IntAttrLessThan.
  static Int64ColumnPredicate ColumnIntLessThan(int64_t threshold,
                                                size_t attr = 0);

  double simulated_cost_micros() const { return simulated_cost_micros_; }

  /// Selections never change the row layout.
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override {
    return inputs.empty() ? nullptr : inputs[0];
  }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    if (typed_pred_.fn != nullptr) {
      return std::make_unique<Selection>(std::move(name), typed_pred_,
                                         simulated_cost_micros_);
    }
    return std::make_unique<Selection>(std::move(name), predicate_,
                                       simulated_cost_micros_);
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch kernel: predicate scan into a selection vector, then in-place
  /// CompactRows, forwarding the survivors as one batch. The typed form
  /// scans the int64 column; the row form (or a batch whose schema lacks
  /// kInt64 at the predicate's attr) evaluates each materialized row.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  Predicate predicate_;
  Int64ColumnPredicate typed_pred_;  // fn == nullptr ⇒ row-form only
  double simulated_cost_micros_;
  std::vector<uint32_t> keep_;  // selection-vector scratch (serialized
                                // under the operator mutex)
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SELECTION_H_
