#include "operators/router.h"

#include <utility>

#include "queue/queue_op.h"
#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

Router::Router(std::string name, RouteFn route)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      route_(std::move(route)) {
  CHECK(route_ != nullptr);
}

uint64_t Router::MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

size_t Router::HashValue(const Value& value) {
  return static_cast<size_t>(MixHash(static_cast<uint64_t>(value.Hash())));
}

Router::RouteFn Router::HashAttr(size_t attr) {
  return [attr](const Tuple& t) { return HashValue(t.at(attr)); };
}

std::unique_ptr<Operator> Router::CloneFresh(std::string name) const {
  auto clone = std::make_unique<Router>(std::move(name), route_);
  clone->SetSequencing(sequencing_);
  return clone;
}

void Router::Process(const Tuple& tuple, int port) {
  (void)port;
  // Punctuations are broadcast by the Operator base class (EmitEos /
  // EmitBarrier) and must never be routed to a single subscriber — a
  // barrier seen by only one replica would misalign or deadlock
  // checkpointing downstream of the split.
  DCHECK(tuple.is_data()) << DebugString() << " routed a punctuation";
  if (outputs().empty()) return;
  const size_t target = route_(tuple) % outputs().size();
  if (sequencing_) {
    Tuple stamped = tuple;
    stamped.set_seq(AllocateArrivalSeq());
    EmitTo(target, std::move(stamped));
    return;
  }
  EmitTo(target, tuple);
}

void Router::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const size_t fan_out = outputs().size();
  if (fan_out == 0) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  // One bulk sequence reservation covers the whole batch: within the batch
  // the stamp order is the batch order, which is the arrival order.
  const size_t n = batch->size();
  const uint64_t first_seq = sequencing_ ? AllocateArrivalSeq(n) : 0;
  if (fan_out == 1) {
    if (sequencing_) batch->StampSeqs(first_seq);
    EmitColumnarTo(0, std::move(batch));
    return;
  }
  std::vector<ColumnarBatchPtr> scatter(fan_out);
  for (size_t i = 0; i < n; ++i) {
    const size_t target = route_(batch->MaterializeRow(i)) % fan_out;
    if (scatter[target] == nullptr) {
      scatter[target] = columnar::AcquireBatch(batch->schema_ptr());
    }
    scatter[target]->AppendRow(*batch, i,
                               sequencing_ ? first_seq + i : batch->SeqAt(i));
  }
  columnar::ReleaseBatch(std::move(batch));
  for (size_t i = 0; i < fan_out; ++i) {
    if (scatter[i] != nullptr) EmitColumnarTo(i, std::move(scatter[i]));
  }
}

}  // namespace flexstream
