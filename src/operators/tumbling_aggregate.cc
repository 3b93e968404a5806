#include "operators/tumbling_aggregate.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "tuple/batch_pool.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

TumblingAggregate::TumblingAggregate(std::string name, Options options)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      options_(options) {
  CHECK_GT(options.window_micros, 0);
}

SchemaPtr TumblingAggregate::InferOutputSchema(
    const std::vector<SchemaPtr>& inputs) const {
  std::vector<Value::Type> types;
  if (options_.group_attr) {
    if (inputs.empty() || inputs[0] == nullptr ||
        *options_.group_attr >= inputs[0]->arity()) {
      return nullptr;
    }
    types.push_back(inputs[0]->type(*options_.group_attr));
  }
  types.push_back(Value::Type::kDouble);
  return MakeSchema(std::move(types));
}

void TumblingAggregate::Reset() {
  Operator::Reset();
  has_window_ = false;
  current_window_ = 0;
  groups_.clear();
}

double TumblingAggregate::Finish(const GroupState& g) const {
  switch (options_.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(g.count);
    case AggregateKind::kSum:
      return g.sum;
    case AggregateKind::kAvg:
      return g.count == 0 ? 0.0 : g.sum / static_cast<double>(g.count);
    case AggregateKind::kMin:
      return g.min;
    case AggregateKind::kMax:
      return g.max;
  }
  return 0.0;
}

void TumblingAggregate::FlushCurrentWindow() {
  if (!has_window_ || groups_.empty()) {
    groups_.clear();
    return;
  }
  const AppTime stamp =
      options_.stamp_window_start
          ? current_window_ * options_.window_micros
          : (current_window_ + 1) * options_.window_micros;
  for (const auto& [key, state] : groups_) {
    if (options_.group_attr) {
      EmitMove(Tuple({key, Value(Finish(state))}, stamp));
    } else {
      EmitMove(Tuple({Value(Finish(state))}, stamp));
    }
  }
  groups_.clear();
}

void TumblingAggregate::Process(const Tuple& tuple, int port) {
  (void)port;
  const AppTime window = WindowIndexOf(tuple.timestamp());
  if (has_window_ && window != current_window_) {
    // Tumbling windows require timestamp-monotone input per edge.
    DCHECK_GT(window, current_window_);
    FlushCurrentWindow();
  }
  has_window_ = true;
  current_window_ = window;
  const Value key = options_.group_attr ? tuple.at(*options_.group_attr)
                                        : Value(int64_t{0});
  const double v = options_.kind == AggregateKind::kCount
                       ? 0.0
                       : tuple.at(options_.value_attr).ToDouble();
  GroupState& g = groups_[key];
  if (g.count == 0) {
    g.min = v;
    g.max = v;
  } else {
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  ++g.count;
  g.sum += v;
}

void TumblingAggregate::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  const Schema& schema = batch->schema();
  const bool needs_value = options_.kind != AggregateKind::kCount;
  const bool value_ok =
      !needs_value ||
      (options_.value_attr < schema.arity() &&
       (schema.type(options_.value_attr) == Value::Type::kInt64 ||
        schema.type(options_.value_attr) == Value::Type::kDouble));
  const bool group_ok =
      !options_.group_attr || *options_.group_attr < schema.arity();
  if (!value_ok || !group_ok) {
    Operator::ProcessColumnar(std::move(batch), port);
    return;
  }
  const size_t n = batch->size();
  const AppTime* ts = batch->Timestamps();
  const int64_t* vi = nullptr;
  const double* vd = nullptr;
  if (needs_value) {
    if (schema.type(options_.value_attr) == Value::Type::kInt64) {
      vi = batch->Ints(options_.value_attr);
    } else {
      vd = batch->Doubles(options_.value_attr);
    }
  }
  const size_t group_attr = options_.group_attr ? *options_.group_attr : 0;
  const Value::Type group_type =
      options_.group_attr ? schema.type(group_attr) : Value::Type::kInt64;
  // The single-group (and run-of-equal-int-keys) state is cached across
  // rows; a window flush invalidates it.
  GroupState* cached = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const AppTime window = WindowIndexOf(ts[i]);
    if (has_window_ && window != current_window_) {
      DCHECK_GT(window, current_window_);
      FlushCurrentWindow();
      cached = nullptr;
    }
    has_window_ = true;
    current_window_ = window;
    GroupState* g;
    if (!options_.group_attr) {
      if (cached == nullptr) cached = &groups_[Value(int64_t{0})];
      g = cached;
    } else {
      switch (group_type) {
        case Value::Type::kInt64:
          g = &groups_[Value(batch->Ints(group_attr)[i])];
          break;
        case Value::Type::kDouble:
          g = &groups_[Value(batch->Doubles(group_attr)[i])];
          break;
        case Value::Type::kString:
        default:
          g = &groups_[Value(std::string(batch->StringAt(group_attr, i)))];
          break;
      }
    }
    const double v = !needs_value
                         ? 0.0
                         : (vi != nullptr ? static_cast<double>(vi[i]) : vd[i]);
    if (g->count == 0) {
      g->min = v;
      g->max = v;
    } else {
      g->min = std::min(g->min, v);
      g->max = std::max(g->max, v);
    }
    ++g->count;
    g->sum += v;
  }
  columnar::ReleaseBatch(std::move(batch));
}

void TumblingAggregate::OnAllInputsClosed(AppTime timestamp) {
  FlushCurrentWindow();
  EmitEos(timestamp);
}


OperatorSnapshot TumblingAggregate::SnapshotState() const {
  OperatorSnapshot snap;
  snap.state = std::make_tuple(has_window_, current_window_, groups_);
  snap.element_count = static_cast<int64_t>(groups_.size());
  return snap;
}

void TumblingAggregate::RestoreState(const OperatorSnapshot& snapshot) {
  using State = std::tuple<bool, AppTime, std::map<Value, GroupState>>;
  const auto& state = std::any_cast<const State&>(snapshot.state);
  has_window_ = std::get<0>(state);
  current_window_ = std::get<1>(state);
  groups_ = std::get<2>(state);
}

Status TumblingAggregate::EncodeState(const OperatorSnapshot& snapshot,
                                      std::string* out) const {
  using State = std::tuple<bool, AppTime, std::map<Value, GroupState>>;
  const State* state = nullptr;
  if (snapshot.state.has_value()) {
    state = std::any_cast<State>(&snapshot.state);
    if (state == nullptr) {
      return Status::InvalidArgument(
          "snapshot is not a tumbling-aggregate snapshot");
    }
  }
  BinaryWriter w(out);
  if (state == nullptr) {
    w.U8(0);
    w.I64(0);
    w.U64(0);
    return Status::Ok();
  }
  w.U8(std::get<0>(*state) ? 1 : 0);
  w.I64(std::get<1>(*state));
  const std::map<Value, GroupState>& groups = std::get<2>(*state);
  w.U64(groups.size());
  for (const auto& [key, group] : groups) {
    w.Value(key);
    w.I64(group.count);
    w.F64(group.sum);
    w.F64(group.min);
    w.F64(group.max);
  }
  return Status::Ok();
}

Result<OperatorSnapshot> TumblingAggregate::DecodeState(
    std::string_view bytes) const {
  BinaryReader r(bytes);
  uint8_t has_window = 0;
  int64_t current_window = 0;
  uint64_t group_count = 0;
  Status st = r.U8(&has_window);
  if (st.ok()) st = r.I64(&current_window);
  if (st.ok()) st = r.U64(&group_count);
  if (!st.ok()) return st;
  if (has_window > 1) {
    return Status::InvalidArgument("malformed tumbling-aggregate snapshot");
  }
  std::map<Value, GroupState> groups;
  for (uint64_t g = 0; g < group_count; ++g) {
    Value key;
    st = r.Value(&key);
    if (!st.ok()) return st;
    GroupState group;
    st = r.I64(&group.count);
    if (st.ok()) st = r.F64(&group.sum);
    if (st.ok()) st = r.F64(&group.min);
    if (st.ok()) st = r.F64(&group.max);
    if (!st.ok()) return st;
    if (!groups.emplace(std::move(key), group).second) {
      return Status::InvalidArgument("duplicate group key in snapshot");
    }
  }
  if (!r.done()) {
    return Status::InvalidArgument(
        "trailing bytes in tumbling-aggregate snapshot");
  }
  OperatorSnapshot snap;
  snap.element_count = static_cast<int64_t>(groups.size());
  snap.state =
      std::make_tuple(has_window == 1, current_window, std::move(groups));
  return snap;
}
}  // namespace flexstream
