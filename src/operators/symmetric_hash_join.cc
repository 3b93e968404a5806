#include "operators/symmetric_hash_join.h"

#include <algorithm>
#include <utility>

#include "operators/router.h"
#include "tuple/batch_pool.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

SymmetricHashJoin::SymmetricHashJoin(std::string name, AppTime window_micros,
                                     size_t left_key_attr,
                                     size_t right_key_attr)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/2),
      window_micros_(window_micros) {
  sides_[kLeftPort].key_attr = left_key_attr;
  sides_[kRightPort].key_attr = right_key_attr;
}

void SymmetricHashJoin::Reset() {
  Operator::Reset();
  for (Side& side : sides_) {
    side.table.clear();
    side.expiry.clear();
    side.stored = 0;
  }
}

size_t SymmetricHashJoin::StateSize() const {
  return sides_[0].stored + sides_[1].stored;
}

void SymmetricHashJoin::Side::Insert(const Tuple& tuple) {
  const Value key = tuple.at(key_attr);
  table[key].push_back(tuple);
  expiry.emplace_back(key, tuple.timestamp());
  ++stored;
}

void SymmetricHashJoin::Side::ExpireBefore(AppTime watermark) {
  while (!expiry.empty() && expiry.front().second < watermark) {
    const Value& key = expiry.front().first;
    auto it = table.find(key);
    DCHECK(it != table.end());
    // Timestamps are monotone per input, so the oldest tuple for this key
    // is at the front of its bucket.
    it->second.pop_front();
    if (it->second.empty()) table.erase(it);
    expiry.pop_front();
    --stored;
  }
}

void SymmetricHashJoin::Process(const Tuple& tuple, int port) {
  DCHECK(port == kLeftPort || port == kRightPort);
  Side& own = sides_[port];
  Side& other = sides_[1 - port];
  const AppTime watermark = tuple.timestamp() - window_micros_;
  // Only the other side expires: every later arrival on this port has a
  // timestamp >= this one, so other-side elements older than the watermark
  // can never join again. This side's elements must stay until the other
  // input has advanced past them — it may still be draining older ones.
  other.ExpireBefore(watermark);
  const Value key = tuple.at(own.key_attr);
  auto it = other.table.find(key);
  if (it != other.table.end()) {
    for (const Tuple& match : it->second) {
      // Explicit window-band check: a pair joins iff each element lies in
      // the other's window (|delta ts| <= w). Expiration alone is not
      // enough when the two inputs are drained by different threads and
      // one side runs ahead — the result multiset must not depend on the
      // schedule (Section 2.4).
      if (match.timestamp() < watermark ||
          match.timestamp() > tuple.timestamp() + window_micros_) {
        continue;
      }
      if (port == kLeftPort) {
        EmitMove(Tuple::Concat(tuple, match));
      } else {
        EmitMove(Tuple::Concat(match, tuple));
      }
    }
  }
  own.Insert(tuple);
}

void SymmetricHashJoin::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  DCHECK(port == kLeftPort || port == kRightPort);
  Side& own = sides_[port];
  Side& other = sides_[1 - port];
  const Schema& schema = batch->schema();
  if (own.key_attr >= schema.arity()) {
    Operator::ProcessColumnar(std::move(batch), port);
    return;
  }
  const Value::Type key_type = schema.type(own.key_attr);
  const int64_t* int_keys = key_type == Value::Type::kInt64
                                ? batch->Ints(own.key_attr)
                                : nullptr;
  const AppTime* ts = batch->Timestamps();
  const size_t n = batch->size();
  for (size_t i = 0; i < n; ++i) {
    const AppTime watermark = ts[i] - window_micros_;
    other.ExpireBefore(watermark);
    Value key;
    if (int_keys != nullptr) {
      key = Value(int_keys[i]);
    } else if (key_type == Value::Type::kDouble) {
      key = Value(batch->Doubles(own.key_attr)[i]);
    } else {
      key = Value(std::string(batch->StringAt(own.key_attr, i)));
    }
    auto it = other.table.find(key);
    // Every row is inserted into its own side, so each is materialized
    // exactly once; matches are emitted before the insertion, matching
    // the row path's expire/probe/insert order.
    Tuple tuple = batch->MaterializeRow(i);
    if (it != other.table.end()) {
      for (const Tuple& match : it->second) {
        if (match.timestamp() < watermark ||
            match.timestamp() > ts[i] + window_micros_) {
          continue;
        }
        if (port == kLeftPort) {
          EmitMove(Tuple::Concat(tuple, match));
        } else {
          EmitMove(Tuple::Concat(match, tuple));
        }
      }
    }
    own.Insert(tuple);
  }
  columnar::ReleaseBatch(std::move(batch));
}

OperatorSnapshot SymmetricHashJoin::SnapshotState() const {
  OperatorSnapshot snap;
  snap.state = std::vector<Side>{sides_[0], sides_[1]};
  snap.element_count = static_cast<int64_t>(StateSize());
  return snap;
}

void SymmetricHashJoin::RestoreState(const OperatorSnapshot& snapshot) {
  const auto& sides =
      std::any_cast<const std::vector<Side>&>(snapshot.state);
  sides_[0] = sides[0];
  sides_[1] = sides[1];
}

Status SymmetricHashJoin::EncodeState(const OperatorSnapshot& snapshot,
                                      std::string* out) const {
  const std::vector<Side>* sides = nullptr;
  if (snapshot.state.has_value()) {
    sides = std::any_cast<std::vector<Side>>(&snapshot.state);
    if (sides == nullptr) {
      return Status::InvalidArgument("snapshot is not a join snapshot");
    }
    if (sides->size() != 2) {
      return Status::InvalidArgument("malformed join snapshot");
    }
  }
  BinaryWriter w(out);
  for (int s = 0; s < 2; ++s) {
    const size_t key_attr =
        sides != nullptr ? (*sides)[s].key_attr : sides_[s].key_attr;
    w.U64(key_attr);
    if (sides == nullptr) {
      w.U64(0);
      continue;
    }
    const Side& side = (*sides)[s];
    w.U64(side.stored);
    // Emit stored tuples in arrival order: the i-th expiry entry for key k
    // pairs with the i-th tuple of k's bucket (both FIFO), so a per-key
    // cursor walk over the expiry queue recovers the arrival stream.
    std::unordered_map<Value, size_t, ValueHash> cursor;
    for (const auto& entry : side.expiry) {
      auto it = side.table.find(entry.first);
      if (it == side.table.end()) {
        return Status::Internal("join snapshot expiry/table mismatch");
      }
      size_t& index = cursor[entry.first];
      if (index >= it->second.size()) {
        return Status::Internal("join snapshot expiry/table mismatch");
      }
      w.Tuple(it->second[index++]);
    }
  }
  return Status::Ok();
}

Result<OperatorSnapshot> SymmetricHashJoin::DecodeState(
    std::string_view bytes) const {
  BinaryReader r(bytes);
  std::vector<Side> sides(2);
  for (int s = 0; s < 2; ++s) {
    uint64_t key_attr = 0;
    uint64_t count = 0;
    Status st = r.U64(&key_attr);
    if (st.ok()) st = r.U64(&count);
    if (!st.ok()) return st;
    if (key_attr != sides_[s].key_attr) {
      return Status::InvalidArgument(
          "join snapshot key attribute does not match operator");
    }
    sides[s].key_attr = key_attr;
    for (uint64_t i = 0; i < count; ++i) {
      Tuple tuple = Tuple::OfInt(0, 0);
      st = r.Tuple(&tuple);
      if (!st.ok()) return st;
      if (!tuple.is_data() || tuple.arity() <= key_attr) {
        return Status::InvalidArgument("malformed join snapshot tuple");
      }
      sides[s].Insert(tuple);
    }
  }
  if (!r.done()) {
    return Status::InvalidArgument("trailing bytes in join snapshot");
  }
  OperatorSnapshot snap;
  snap.element_count =
      static_cast<int64_t>(sides[0].stored + sides[1].stored);
  snap.state = std::move(sides);
  return snap;
}

std::unique_ptr<Operator> SymmetricHashJoin::CloneFresh(
    std::string name) const {
  return std::make_unique<SymmetricHashJoin>(std::move(name), window_micros_,
                                             sides_[kLeftPort].key_attr,
                                             sides_[kRightPort].key_attr);
}

Result<std::vector<OperatorSnapshot>> SymmetricHashJoin::RepartitionSnapshots(
    const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const {
  if (new_n == 0) {
    return Status::InvalidArgument("cannot repartition into 0 shards");
  }
  if (snapshots.empty()) {
    return Status::InvalidArgument("no replica snapshots to repartition");
  }
  std::vector<std::vector<Side>> shards(new_n, std::vector<Side>(2));
  for (std::vector<Side>& shard : shards) {
    shard[kLeftPort].key_attr = sides_[kLeftPort].key_attr;
    shard[kRightPort].key_attr = sides_[kRightPort].key_attr;
  }
  for (int s = 0; s < 2; ++s) {
    // Reconstruct each replica's per-side arrival stream: the i-th expiry
    // entry for key k corresponds to the i-th tuple of k's bucket (both
    // are FIFO in arrival order).
    std::vector<Tuple> arrivals;
    for (const OperatorSnapshot& snap : snapshots) {
      if (snap.epoch != snapshots.front().epoch) {
        return Status::FailedPrecondition(
            "replica snapshots span different epochs");
      }
      const auto* replica =
          std::any_cast<std::vector<Side>>(&snap.state);
      if (replica == nullptr && snap.state.has_value()) {
        return Status::InvalidArgument("snapshot is not a join snapshot");
      }
      if (replica == nullptr) continue;  // empty state: nothing stored
      if (replica->size() != 2) {
        return Status::InvalidArgument("malformed join snapshot");
      }
      const Side& side = (*replica)[s];
      std::unordered_map<Value, size_t, ValueHash> cursor;
      for (const auto& entry : side.expiry) {
        auto it = side.table.find(entry.first);
        if (it == side.table.end()) {
          return Status::Internal("join snapshot expiry/table mismatch");
        }
        size_t& index = cursor[entry.first];
        if (index >= it->second.size()) {
          return Status::Internal("join snapshot expiry/table mismatch");
        }
        arrivals.push_back(it->second[index++]);
      }
    }
    // Merge the replicas into one timestamp-ordered stream. Each replica's
    // stream is timestamp-monotone, so a stable sort is a valid merge; the
    // expiry queues of the new shards come out monotone as required.
    std::stable_sort(
        arrivals.begin(), arrivals.end(),
        [](const Tuple& a, const Tuple& b) {
          return a.timestamp() < b.timestamp();
        });
    for (const Tuple& tuple : arrivals) {
      const size_t shard =
          Router::HashValue(tuple.at(sides_[s].key_attr)) % new_n;
      shards[shard][s].Insert(tuple);
    }
  }
  std::vector<OperatorSnapshot> out(new_n);
  for (size_t i = 0; i < new_n; ++i) {
    out[i].epoch = snapshots.front().epoch;
    out[i].element_count = static_cast<int64_t>(shards[i][0].stored +
                                                shards[i][1].stored);
    out[i].state = std::move(shards[i]);
  }
  return out;
}
}  // namespace flexstream
