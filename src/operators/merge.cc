#include "operators/merge.h"

#include <algorithm>
#include <utility>

#include "tuple/columnar_batch.h"
#include "util/logging.h"

namespace flexstream {

MergeOperator::MergeOperator(std::string name, Order order)
    : Operator(Kind::kOperator, std::move(name), Node::kVariadicArity),
      order_(order) {}

size_t MergeOperator::PendingCount() const {
  size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.pending.size();
  return total;
}

void MergeOperator::EnsureLanes() {
  if (lanes_built_) return;
  lanes_built_ = true;
  lanes_.clear();
  for (const InEdge& in : inputs()) {
    Lane lane;
    lane.source = in.source;
    lanes_.push_back(std::move(lane));
  }
}

MergeOperator::Lane* MergeOperator::LaneForSender(const Node* sender) {
  for (Lane& lane : lanes_) {
    if (lane.source == sender) return &lane;
  }
  return nullptr;
}

void MergeOperator::Process(const Tuple& tuple, int port) {
  (void)port;
  if (order_ == Order::kArrival) {
    Emit(tuple);
    return;
  }
  EnsureLanes();
  Lane* lane = LaneForSender(CurrentDeliverySender());
  if (lane == nullptr) {
    // Driven from outside the graph (unit test): no lane structure to
    // merge against — pass through.
    Emit(tuple);
    return;
  }
  // Non-decreasing, not strict: a replica emitting several outputs for one
  // input stamps them all with that input's sequence number.
  DCHECK(lane->pending.empty() || lane->pending.back().seq() <= tuple.seq())
      << DebugString() << " lane delivered out of sequence";
  lane->pending.push_back(tuple);
  ReleaseReady();
}

void MergeOperator::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  if (order_ == Order::kArrival) {
    EmitColumnar(std::move(batch));
    return;
  }
  Operator::ProcessColumnar(std::move(batch), port);
}

void MergeOperator::ReleaseReady() {
  for (;;) {
    Lane* best = nullptr;
    bool blocked = false;
    for (Lane& lane : lanes_) {
      if (lane.pending.empty()) {
        if (!lane.closed) {
          // An open empty lane may still produce the next-smallest
          // sequence number; nothing may overtake it.
          blocked = true;
          break;
        }
        continue;
      }
      if (best == nullptr ||
          lane.pending.front().seq() < best->pending.front().seq()) {
        best = &lane;
      }
    }
    if (blocked || best == nullptr) break;
    Tuple next = std::move(best->pending.front());
    best->pending.pop_front();
    EmitMove(std::move(next));
  }
}

void MergeOperator::FlushAllPending() {
  std::vector<Tuple> run;
  for (Lane& lane : lanes_) {
    for (Tuple& tuple : lane.pending) run.push_back(std::move(tuple));
    lane.pending.clear();
  }
  if (run.empty()) return;
  // Stable: equal stamps (several outputs of one input element) only occur
  // within one lane, and their within-lane order must survive the flush.
  std::stable_sort(
      run.begin(), run.end(),
      [](const Tuple& a, const Tuple& b) { return a.seq() < b.seq(); });
  for (Tuple& tuple : run) EmitMove(std::move(tuple));
}

void MergeOperator::OnEpochAligned(uint64_t epoch) {
  (void)epoch;
  if (order_ != Order::kSequence) return;
  // Alignment guarantees every lane delivered its full pre-barrier prefix
  // and everything still to come is post-barrier (hence larger sequence
  // numbers): the whole backlog is safe to release ahead of the barrier.
  FlushAllPending();
}

void MergeOperator::OnInputEos(const Node* sender, int port) {
  (void)port;
  if (order_ != Order::kSequence) return;
  EnsureLanes();
  Lane* lane = LaneForSender(sender);
  if (lane == nullptr) return;
  lane->closed = true;
  ReleaseReady();
}

void MergeOperator::OnAllInputsClosed(AppTime timestamp) {
  // Belt and braces: with every lane closed ReleaseReady has already
  // drained everything, but a direct-driven merge (no lanes) may not have.
  if (order_ == Order::kSequence) FlushAllPending();
  Operator::OnAllInputsClosed(timestamp);
}

void MergeOperator::Reset() {
  Operator::Reset();
  lanes_.clear();
  lanes_built_ = false;
}

}  // namespace flexstream
