// Data sources.
//
// Sources "only deliver data" (Section 2.1). They are driven from outside
// the scheduler — either by an autonomous thread (workload/rate_source.h),
// or synchronously by tests/benchmarks pushing elements. With DI and no
// queue after the source, the source's driving thread executes the whole
// downstream subgraph (the configuration Section 6.3 shows to be unsafe
// for expensive operators).

#ifndef FLEXSTREAM_OPERATORS_SOURCE_H_
#define FLEXSTREAM_OPERATORS_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

/// Base class for sources: exposes Push/Close so external drivers can
/// inject elements.
///
/// Checkpointing (src/recovery/): ArmEpochs makes the source inject an
/// epoch-barrier punctuation after every `interval` pushed elements and
/// report each push to a PushObserver (the recovery manager's replay
/// buffer) *before* emitting it — so an element lost to a failure mid-emit
/// is still replayable. While armed, Push/Close also take a shared lock on
/// the recovery gate; recovery takes it exclusively to quiesce all driving
/// threads before restoring state.
class Source : public Operator {
 public:
  /// Observes the armed source's input stream for replay (implemented by
  /// recovery::ReplayBuffer). Called in the driving thread, before the
  /// element is emitted. `epoch` is the epoch the element belongs to
  /// (elements after barrier k-1 and up to barrier k belong to epoch k).
  class PushObserver {
   public:
    virtual ~PushObserver() = default;
    virtual void OnPush(const Tuple& tuple, uint64_t epoch) = 0;
    virtual void OnClose(AppTime timestamp) = 0;
  };

  explicit Source(std::string name);

  /// Delivers one data element downstream (in the calling thread). With an
  /// emit batch size > 1, the element is scattered into the pending
  /// ColumnarBatch instead and delivered as part of it (DESIGN.md §17).
  void Push(const Tuple& tuple);

  /// Move-aware Push: with per-tuple delivery the element's payload is
  /// moved into the first Receive (the batch path copies it into columns).
  void Push(Tuple&& tuple);

  /// Emits the end-of-stream punctuation (flushing any pending batch
  /// first). Idempotent.
  void Close(AppTime timestamp = 0);

  /// Batch accumulation (EngineOptions::emit_batch_size, DESIGN.md §17):
  /// sizes > 1 make Push scatter elements into a pooled ColumnarBatch and
  /// emit it via EmitColumnar once full. The batch's schema is the
  /// declared output schema when it matches the data, else inferred from
  /// the first element; an element that stops matching flushes the batch
  /// and starts a new one under the new schema, so mixed-type streams
  /// degrade to smaller batches, never to wrong answers. Pending elements
  /// are flushed before every epoch barrier, before Close's EOS, and by
  /// this call itself — batches never straddle a punctuation. 0 is treated
  /// as 1 (per-tuple delivery, the default). Engine-configured; call from
  /// the driving thread or while quiescent.
  void SetBatchSize(size_t batch_size);
  size_t emit_batch_size() const { return emit_batch_size_; }

  /// Thread-safe batch-size change request (the SLO controller's rung-2
  /// actuation): the new size is applied by the driving thread itself at
  /// its next Push (pending elements are flushed first, so batches never
  /// reorder across the change). 0 is treated as 1.
  void RequestBatchSize(size_t batch_size) {
    requested_batch_size_.store(batch_size == 0 ? 1 : batch_size,
                                std::memory_order_relaxed);
  }

  /// Declares the attribute types this source will push — the graph-build-
  /// time anchor of schema propagation (StreamEngine::Configure walks it
  /// through the topology). Purely declarative: batches still verify
  /// element-by-element, so a wrong declaration costs batch granularity,
  /// never correctness.
  void DeclareOutputSchema(SchemaPtr schema);
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override;

  /// Columnar quickstart: delivers a pre-built typed batch downstream
  /// whole, skipping per-tuple Tuple construction entirely (benches and
  /// columnar-native feeds). Any accumulated elements are flushed first so
  /// order is preserved. When the epoch/replay machinery is armed the
  /// batch is unbundled onto the per-element Push path (the observer must
  /// see every element), so recovery semantics are untouched.
  void PushColumnar(ColumnarBatchPtr batch);

  bool closed_by_driver() const { return closed_by_driver_; }

  /// Arms epoch injection: a barrier after every `interval` pushes,
  /// deliveries reported to `observer`, Push/Close gated by `gate`.
  /// Engine-configured; call while quiescent. Survives Reset (the counters
  /// rewind via RewindTo instead).
  void ArmEpochs(uint64_t interval, PushObserver* observer,
                 std::shared_mutex* gate);
  void DisarmEpochs();
  bool epochs_armed() const { return epoch_interval_ != 0; }

  /// The epoch the next pushed element will belong to (1-based).
  uint64_t current_epoch() const { return next_epoch_; }

  /// Recovery rewind: resumes the epoch counters at the boundary of
  /// committed epoch `epoch`, reopening the source if the driver's Close
  /// is being replayed too. Call with the gate held exclusively, after
  /// Reset().
  void RewindTo(uint64_t epoch);

  /// Cold-restart resume (DESIGN.md §16): silently discards the next `n`
  /// data pushes on the epoch path — no emit, no observer record, no epoch
  /// counting. After a cold restart the driver re-feeds the source's full
  /// deterministic input; the skip swallows the prefix already reflected
  /// in the restored epoch's state, so the live run resumes exactly at the
  /// durable replay cursor and barriers regenerate at identical positions.
  /// Call with the graph quiescent, after RewindTo. Cleared by
  /// ArmEpochs/DisarmEpochs but preserved across RewindTo/Reset (a live
  /// recovery during the skip phase must keep skipping).
  void SetResumeSkip(uint64_t n) { resume_skip_ = n; }
  uint64_t resume_skip() const { return resume_skip_; }

  /// Replay bracket: between BeginReplay and EndReplay, Push/Close bypass
  /// both the gate (the recovery thread holds it exclusively — retaking it
  /// would self-deadlock) and the observer (replayed elements are already
  /// buffered).
  void BeginReplay() { replaying_ = true; }
  void EndReplay() { replaying_ = false; }

  void Reset() override;

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  void PushEpochs(const Tuple& tuple);
  /// Emits the accumulated batch downstream.
  void FlushPendingBatch();
  /// Scatters one element into the pending batch (creating it from the
  /// pool on first use), flushing when full or on schema change.
  void AppendPending(const Tuple& tuple);
  /// Driving-thread check for a pending RequestBatchSize; applies it
  /// (flush + switch) when one differs from the current size. One relaxed
  /// load on the push path.
  void ApplyRequestedBatchSize() {
    const size_t requested =
        requested_batch_size_.load(std::memory_order_relaxed);
    if (requested != emit_batch_size_) SetBatchSize(requested);
  }

  bool closed_by_driver_ = false;

  // Batch accumulation (driving-thread only, like the epoch counters).
  size_t emit_batch_size_ = 1;
  // Cross-thread change request, applied by the driving thread.
  std::atomic<size_t> requested_batch_size_{1};
  ColumnarBatchPtr pending_;
  SchemaPtr declared_schema_;  // user declaration (DeclareOutputSchema)
  SchemaPtr batch_schema_;     // working schema of the current batches

  // Epoch/replay state. Touched by the (single) driving thread and, with
  // the gate held exclusively, by the recovery thread.
  uint64_t epoch_interval_ = 0;
  uint64_t next_epoch_ = 1;
  uint64_t pushed_in_epoch_ = 0;
  uint64_t resume_skip_ = 0;
  PushObserver* observer_ = nullptr;
  std::shared_mutex* gate_ = nullptr;
  bool replaying_ = false;
};

/// A source over a pre-materialized vector of tuples; PushAll() replays
/// them in order and closes. Used by tests and oracle computations.
class VectorSource : public Source {
 public:
  VectorSource(std::string name, std::vector<Tuple> tuples);

  /// Replays every tuple then EOS (timestamped with the last element's
  /// timestamp).
  void PushAll();

  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::vector<Tuple> tuples_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SOURCE_H_
