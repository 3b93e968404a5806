#include "operators/latency_sink.h"

#include <utility>

#include "tuple/batch_pool.h"
#include "util/binary_io.h"

namespace flexstream {

LatencySink::LatencySink(std::string name, size_t offset_attr,
                         TimePoint epoch, std::optional<size_t> phase_attr)
    : Sink(std::move(name)),
      offset_attr_(offset_attr),
      epoch_(epoch),
      phase_attr_(phase_attr) {}

void LatencySink::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  const Schema& schema = batch->schema();
  const bool offset_ok = offset_attr_ < schema.arity() &&
                         schema.type(offset_attr_) == Value::Type::kInt64;
  const bool phase_ok =
      !phase_attr_.has_value() ||
      (*phase_attr_ < schema.arity() &&
       schema.type(*phase_attr_) == Value::Type::kInt64);
  if (!offset_ok || !phase_ok) {
    Operator::ProcessColumnar(std::move(batch), port);
    return;
  }
  const size_t n = batch->size();
  const int64_t* offsets = batch->Ints(offset_attr_);
  const int64_t* phases =
      phase_attr_.has_value() ? batch->Ints(*phase_attr_) : nullptr;
  const int64_t now_offset = ToMicros(Now() - epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < n; ++i) {
    const double latency_micros = static_cast<double>(now_offset - offsets[i]);
    histogram_.Add(latency_micros);
    if (phases != nullptr) phase_histograms_[phases[i]].Add(latency_micros);
  }
  columnar::ReleaseBatch(std::move(batch));
}

Histogram LatencySink::TakeHistogram() {
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram h = histogram_;
  histogram_.Reset();
  return h;
}

Histogram LatencySink::SnapshotHistogram() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_;
}

std::map<int64_t, Histogram> LatencySink::TakePhaseHistograms() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int64_t, Histogram> out;
  out.swap(phase_histograms_);
  return out;
}

int64_t LatencySink::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_.count();
}

namespace {
struct LatencyState {
  Histogram histogram;
  std::map<int64_t, Histogram> phase_histograms;
};
}  // namespace

OperatorSnapshot LatencySink::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OperatorSnapshot s;
  s.state = LatencyState{histogram_, phase_histograms_};
  s.element_count = histogram_.count();
  return s;
}

void LatencySink::RestoreState(const OperatorSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!snapshot.state.has_value()) {
    histogram_.Reset();
    phase_histograms_.clear();
    return;
  }
  const auto& state = std::any_cast<const LatencyState&>(snapshot.state);
  histogram_ = state.histogram;
  phase_histograms_ = state.phase_histograms;
}

Status LatencySink::EncodeState(const OperatorSnapshot& snapshot,
                                std::string* out) const {
  const LatencyState* state = nullptr;
  if (snapshot.state.has_value()) {
    state = std::any_cast<LatencyState>(&snapshot.state);
    if (state == nullptr) {
      return Status::InvalidArgument(
          "snapshot is not a latency-sink snapshot");
    }
  }
  BinaryWriter w(out);
  if (state == nullptr) {
    Histogram().EncodeTo(out);
    w.U64(0);
    return Status::Ok();
  }
  state->histogram.EncodeTo(out);
  w.U64(state->phase_histograms.size());
  for (const auto& [phase, histogram] : state->phase_histograms) {
    w.I64(phase);
    histogram.EncodeTo(out);
  }
  return Status::Ok();
}

Result<OperatorSnapshot> LatencySink::DecodeState(
    std::string_view bytes) const {
  BinaryReader r(bytes);
  LatencyState state;
  Status st = Histogram::DecodeFrom(&r, &state.histogram);
  if (!st.ok()) return st;
  uint64_t phase_count = 0;
  st = r.U64(&phase_count);
  if (!st.ok()) return st;
  for (uint64_t i = 0; i < phase_count; ++i) {
    int64_t phase = 0;
    st = r.I64(&phase);
    if (!st.ok()) return st;
    Histogram histogram;
    st = Histogram::DecodeFrom(&r, &histogram);
    if (!st.ok()) return st;
    if (!state.phase_histograms.emplace(phase, histogram).second) {
      return Status::InvalidArgument("duplicate phase id in snapshot");
    }
  }
  if (!r.done()) {
    return Status::InvalidArgument("trailing bytes in latency-sink snapshot");
  }
  OperatorSnapshot snap;
  snap.element_count = state.histogram.count();
  snap.state = std::move(state);
  return snap;
}

void LatencySink::Reset() {
  Sink::Reset();
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Reset();
  phase_histograms_.clear();
}

void LatencySink::Consume(const Tuple& tuple, int port) {
  (void)port;
  const int64_t now_offset = ToMicros(Now() - epoch_);
  const double latency_micros =
      static_cast<double>(now_offset - tuple.IntAt(offset_attr_));
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Add(latency_micros);
  if (phase_attr_.has_value()) {
    phase_histograms_[tuple.IntAt(*phase_attr_)].Add(latency_micros);
  }
}

}  // namespace flexstream
