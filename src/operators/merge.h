// Merge: re-unifies the per-replica streams of a sharded operator
// (src/api/shard.h) into one output stream.
//
// Two variants:
//  * kArrival — pass-through union: elements flow downstream in whatever
//    order the replica threads deliver them. Zero buffering, zero
//    overhead; output order is nondeterministic across runs.
//  * kSequence — ordered k-way merge on the global arrival sequence
//    numbers stamped at the split point (a sequencing Router, propagated
//    through the replicas via Operator::SetStampEmitSeq). The output is
//    the exact arrival order of the pre-split stream, so the differential
//    harness's exact-sequence oracle keeps applying to sharded graphs.
//
// Ordered release rule: one lane per upstream channel (replica, or the
// queue the engine wires in front of the merge). A lane's head element is
// releasable iff every *other* open lane is non-empty — each lane is FIFO
// in sequence order, so when all open lanes are non-empty the globally
// smallest head can never be undercut by a future arrival. Closed lanes
// (EOS seen, via Operator::OnInputEos) never block; open empty lanes do.
//
// Punctuation-awareness bounds the buffering: at every epoch-barrier
// alignment (Operator::OnEpochAligned) all lanes have delivered their full
// pre-barrier prefix, so the merge flushes everything pending — in
// sequence order, still ahead of the outgoing barrier. The merge is
// therefore stateless at every snapshot point and needs no state snapshot
// of its own. Likewise all-inputs-EOS flushes the tail.

#ifndef FLEXSTREAM_OPERATORS_MERGE_H_
#define FLEXSTREAM_OPERATORS_MERGE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "operators/operator.h"

namespace flexstream {

class MergeOperator : public Operator {
 public:
  enum class Order {
    kArrival,   // pass-through union, nondeterministic interleaving
    kSequence,  // k-way merge on Tuple::seq, restores split-point order
  };

  MergeOperator(std::string name, Order order);

  Order order() const { return order_; }

  /// Total elements currently buffered across all lanes (diagnostics).
  size_t PendingCount() const;

  /// Quiesced flush (live re-sharding, src/api/shard.h ResizeShard): emits
  /// everything pending in global sequence order. Only safe when every
  /// produced element has reached the merge — sources paused and all
  /// upstream queues drained — because then the pending lanes hold the
  /// complete undelivered set and sequence order is the exact release
  /// order, just like at a barrier alignment. Runs in the calling thread.
  void FlushPendingQuiesced() { FlushAllPending(); }

  void Reset() override;

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// kArrival forwards batches whole, like UnionOp. kSequence lanes stay
  /// per-tuple: the base per-row path feeds each row to Process (replicas
  /// under SetStampEmitSeq already emit row by row).
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;
  void OnEpochAligned(uint64_t epoch) override;
  void OnInputEos(const Node* sender, int port) override;
  void OnAllInputsClosed(AppTime timestamp) override;

 private:
  struct Lane {
    const Node* source = nullptr;
    std::deque<Tuple> pending;  // FIFO, ascending Tuple::seq
    bool closed = false;        // EOS delivered; never blocks releases
  };

  /// Lanes mirror inputs(), built lazily at the first delivery so they see
  /// the final topology (the engine inserts decoupling queues after
  /// construction; the actual senders are those queues).
  void EnsureLanes();
  Lane* LaneForSender(const Node* sender);

  /// Releases the longest currently-safe run under the release rule,
  /// emitting it tuple by tuple.
  void ReleaseReady();
  /// Emits everything pending, in global sequence order (barrier
  /// alignment / final close — see file comment for why this is safe).
  void FlushAllPending();

  const Order order_;
  std::vector<Lane> lanes_;
  bool lanes_built_ = false;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_MERGE_H_
