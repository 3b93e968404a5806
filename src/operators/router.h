// Router: partitions its input stream across its subscribers.
//
// Unlike plain fan-out (Emit broadcasts to every subscriber — the
// subquery-sharing pattern of Figure 1), a Router sends each element to
// exactly one subscriber, selected by a user routing function. This is
// the building block for splitting a hot stream across parallel
// sub-pipelines that separate HMTS partitions can then execute, and the
// split half of the shard pattern (src/api/shard.h): key-partition the
// input across N replicas, re-merge behind them.
//
// Punctuations (EOS, epoch barriers) never reach Process — the Operator
// base class broadcasts them to *every* subscriber (EmitEos/EmitBarrier),
// which is exactly the semantics a splitter needs: every sub-pipeline must
// observe every barrier for alignment, and every replica must close.

#ifndef FLEXSTREAM_OPERATORS_ROUTER_H_
#define FLEXSTREAM_OPERATORS_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/value.h"

namespace flexstream {

class Router : public Operator {
 public:
  /// The route function returns any non-negative value; the element goes
  /// to subscriber (value % fan_out). Subscribers are numbered in
  /// connection order.
  using RouteFn = std::function<size_t(const Tuple&)>;

  Router(std::string name, RouteFn route);

  /// Routes by hash of one attribute (key partitioning). The raw
  /// Value::Hash is finalized through MixHash so that small-integer keys
  /// (which std::hash maps to themselves on most implementations) don't
  /// partition modulo-N pathologically.
  static RouteFn HashAttr(size_t attr);

  /// The hardened key hash HashAttr routes by: Value::Hash run through the
  /// splitmix64 finalizer. Exposed so state repartitioning (shard snapshot
  /// restore with a different N) assigns keys exactly as live routing does.
  static size_t HashValue(const Value& value);

  /// splitmix64 finalizer: full-avalanche bit mixer.
  static uint64_t MixHash(uint64_t h);

  /// When enabled, every routed data element is stamped with a fresh
  /// global arrival sequence number (AllocateArrivalSeq) before delivery.
  /// This marks the Router as the *split point* of an ordered shard: the
  /// replicas propagate the stamp (Operator::SetStampEmitSeq) and the
  /// ordered Merge restores the global order. Configure while quiescent.
  void SetSequencing(bool enabled) { sequencing_ = enabled; }
  bool sequencing() const { return sequencing_; }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override;

 protected:
  void Process(const Tuple& tuple, int port) override;

  /// Columnar scatter: routes each row with the route function, appends it
  /// to a pooled per-subscriber batch (order-preserving within each run),
  /// and delivers each non-empty run as one ReceiveColumnar call. A
  /// sequencing Router stamps the whole batch from one seq reservation.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  RouteFn route_;
  bool sequencing_ = false;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_ROUTER_H_
