// Union operator: merges any number of input streams into one output
// stream, preserving per-input order (bag union; no duplicate
// elimination). Variadic arity — any number of producers may connect.

#ifndef FLEXSTREAM_OPERATORS_UNION_OP_H_
#define FLEXSTREAM_OPERATORS_UNION_OP_H_

#include <string>

#include "operators/operator.h"

namespace flexstream {

class UnionOp : public Operator {
 public:
  explicit UnionOp(std::string name);

  /// Bag union preserves the row layout; the engine's propagation pass
  /// already collapses conflicting producer schemas to null.
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override {
    return inputs.empty() ? nullptr : inputs[0];
  }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<UnionOp>(std::move(name));
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch passthrough: a pointer move, zero per-row work (bag union is a
  /// no-op on the payload; per-input order is preserved because a batch
  /// is a contiguous run from one producer).
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_UNION_OP_H_
