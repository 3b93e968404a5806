#include "operators/source.h"

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

Source::Source(std::string name)
    : Operator(Kind::kSource, std::move(name), /*input_arity=*/0) {}

void Source::Push(const Tuple& tuple) {
  ApplyRequestedBatchSize();
  if (epoch_interval_ != 0) {
    PushEpochs(tuple);
    return;
  }
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    AppendPending(tuple);
    return;
  }
  Emit(tuple);
}

void Source::Push(Tuple&& tuple) {
  ApplyRequestedBatchSize();
  if (epoch_interval_ != 0) {
    // The epoch path copies into the replay buffer anyway; no move win.
    PushEpochs(tuple);
    return;
  }
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    // Scattering copies the attribute payloads into the columns; the
    // move-in tuple is simply dropped afterwards.
    AppendPending(tuple);
    return;
  }
  EmitMove(std::move(tuple));
}

void Source::SetBatchSize(size_t batch_size) {
  FlushPendingBatch();
  emit_batch_size_ = batch_size == 0 ? 1 : batch_size;
  // Keep the cross-thread request in sync so a stale earlier request
  // cannot resurrect an old size at the next Push.
  requested_batch_size_.store(emit_batch_size_, std::memory_order_relaxed);
}

void Source::FlushPendingBatch() {
  if (pending_ == nullptr || pending_->empty()) return;
  EmitColumnar(std::move(pending_));
}

void Source::AppendPending(const Tuple& tuple) {
  if (pending_ == nullptr) {
    if (batch_schema_ == nullptr || !batch_schema_->Matches(tuple)) {
      batch_schema_ =
          (declared_schema_ != nullptr && declared_schema_->Matches(tuple))
              ? declared_schema_
              : MakeSchema(Schema::InferFrom(tuple).types());
    }
    pending_ = columnar::AcquireBatch(batch_schema_);
  }
  if (!pending_->AppendTuple(tuple)) {
    // Schema drift mid-stream: flush what accumulated and restart under
    // the element's own schema.
    FlushPendingBatch();
    batch_schema_ = MakeSchema(Schema::InferFrom(tuple).types());
    pending_ = columnar::AcquireBatch(batch_schema_);
    const bool ok = pending_->AppendTuple(tuple);
    DCHECK(ok);
  }
  if (pending_->size() >= emit_batch_size_) FlushPendingBatch();
}

void Source::DeclareOutputSchema(SchemaPtr schema) {
  declared_schema_ = std::move(schema);
  SetStaticOutputSchema(declared_schema_);
}

SchemaPtr Source::InferOutputSchema(const std::vector<SchemaPtr>&) const {
  return declared_schema_;
}

void Source::PushColumnar(ColumnarBatchPtr batch) {
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  ApplyRequestedBatchSize();
  if (epoch_interval_ != 0) {
    // The epoch/replay machinery (observer records, barrier counting,
    // resume skip) is per-element: unbundle onto the exact Push path.
    for (size_t i = 0; i < batch->size(); ++i) {
      Push(batch->MaterializeRow(i));
    }
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrivalBatch(Now(), static_cast<int64_t>(batch->size()));
    stats().RecordProcessedBatch(0.0, static_cast<int64_t>(batch->size()));
  }
  FlushPendingBatch();  // anything accumulated earlier goes first
  EmitColumnar(std::move(batch));
}

void Source::PushEpochs(const Tuple& tuple) {
  // The gate stalls live pushes while recovery rewinds/replays; replayed
  // pushes come from the thread already holding it exclusively.
  std::shared_lock<std::shared_mutex> gate_lock;
  if (gate_ != nullptr && !replaying_) {
    gate_lock = std::shared_lock<std::shared_mutex>(*gate_);
  }
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (resume_skip_ > 0 && !replaying_) {
    // Cold-restart prefix: already reflected in the restored state.
    --resume_skip_;
    return;
  }
  // Record before emitting: if a failure poisons the graph mid-emit, the
  // element is already in the replay buffer.
  if (observer_ != nullptr && !replaying_) observer_->OnPush(tuple, next_epoch_);
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    AppendPending(tuple);
  } else {
    Emit(tuple);
  }
  if (++pushed_in_epoch_ >= epoch_interval_) {
    // Barriers regenerate deterministically on replay: the counters rewind
    // to the committed boundary, so replayed elements re-cross the same
    // epoch boundaries at the same positions. Any accumulating batch is
    // flushed first — a batch never straddles a barrier.
    FlushPendingBatch();
    EmitBarrier(Tuple::EpochBarrier(next_epoch_));
    ++next_epoch_;
    pushed_in_epoch_ = 0;
  }
}

void Source::Close(AppTime timestamp) {
  std::shared_lock<std::shared_mutex> gate_lock;
  if (epoch_interval_ != 0 && gate_ != nullptr && !replaying_) {
    gate_lock = std::shared_lock<std::shared_mutex>(*gate_);
  }
  if (closed_by_driver_) return;
  closed_by_driver_ = true;
  if (observer_ != nullptr && !replaying_) observer_->OnClose(timestamp);
  FlushPendingBatch();
  EmitEos(timestamp);
}

void Source::ArmEpochs(uint64_t interval, PushObserver* observer,
                       std::shared_mutex* gate) {
  epoch_interval_ = interval;
  observer_ = observer;
  gate_ = gate;
  next_epoch_ = 1;
  pushed_in_epoch_ = 0;
  resume_skip_ = 0;
  replaying_ = false;
}

void Source::DisarmEpochs() {
  epoch_interval_ = 0;
  observer_ = nullptr;
  gate_ = nullptr;
  next_epoch_ = 1;
  pushed_in_epoch_ = 0;
  resume_skip_ = 0;
  replaying_ = false;
}

void Source::RewindTo(uint64_t epoch) {
  closed_by_driver_ = false;
  next_epoch_ = epoch + 1;
  pushed_in_epoch_ = 0;
}

void Source::Reset() {
  Operator::Reset();
  closed_by_driver_ = false;
  columnar::ReleaseBatch(std::move(pending_));
}

void Source::Process(const Tuple& tuple, int port) {
  (void)tuple;
  (void)port;
  LOG(FATAL) << "sources have no inputs: " << DebugString();
}

VectorSource::VectorSource(std::string name, std::vector<Tuple> tuples)
    : Source(std::move(name)), tuples_(std::move(tuples)) {}

void VectorSource::PushAll() {
  AppTime last_ts = 0;
  for (const Tuple& t : tuples_) {
    Push(t);
    last_ts = t.timestamp();
  }
  Close(last_ts);
}

}  // namespace flexstream
