// Binary symmetric hash join (SHJ) over sliding time windows.
//
// The join of Section 6.3's decoupling experiment. Each side maintains a
// hash table keyed on its join attribute plus an expiration queue; an
// arriving element expires the *opposite* window to its watermark
// (timestamp - window), probes the opposite hash table, emits one
// concatenated result per match in the window band, and is inserted into
// its own side. Output attribute order is always (left-tuple attrs,
// right-tuple attrs) regardless of which side arrived.
//
// The result multiset does not depend on the schedule. Each input is
// timestamp-ordered, but the two inputs may be drained by different
// threads, so one side can run far ahead of the other. Expiring only the
// opposite side keeps a stored element until every possible partner has
// probed it: an element leaves once the other input has advanced past its
// window. The price is that an idle input stops the other side's expiry,
// so that side's state grows until the idle input advances or closes.

#ifndef FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_
#define FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"
#include "tuple/columnar_batch.h"
#include "util/status.h"

namespace flexstream {

class SymmetricHashJoin : public Operator, public StatefulOperator {
 public:
  static constexpr int kLeftPort = 0;
  static constexpr int kRightPort = 1;

  /// `window_micros` is the sliding-window length applied to both sides.
  /// `left_key_attr` / `right_key_attr` select the equi-join attributes.
  SymmetricHashJoin(std::string name, AppTime window_micros,
                    size_t left_key_attr = 0, size_t right_key_attr = 0);

  void Reset() override;

  /// Current number of stored tuples (both windows) — the join's state
  /// size, one of the memory metrics benchmarks report.
  size_t StateSize() const;

  OperatorSnapshot SnapshotState() const override;
  void RestoreState(const OperatorSnapshot& snapshot) override;

  bool SupportsDurableState() const override { return true; }
  Status EncodeState(const OperatorSnapshot& snapshot,
                     std::string* out) const override;
  Result<OperatorSnapshot> DecodeState(std::string_view bytes) const override;

  std::unique_ptr<Operator> CloneFresh(std::string name) const override;

  /// Redistributes the committed snapshots of N replicas of this join
  /// (key-partitioned on both sides' join attributes) into `new_n`
  /// partitions, assigning every stored tuple to
  /// Router::HashValue(key) % new_n — exactly how a sequencing Router
  /// routes live elements, so a restore with a different shard count sees
  /// every tuple where future probes will look for it. `this` supplies the
  /// join parameters; its own state is untouched. Per-side arrival order
  /// is rebuilt by a timestamp-stable merge (expiration requires monotone
  /// expiry queues).
  Result<std::vector<OperatorSnapshot>> RepartitionSnapshots(
      const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const;

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Columnar inner loop: typed-key probes read the key column directly
  /// (an int64 key never touches a Tuple until a row is inserted or
  /// matched), timestamps come from the batch's timestamp column, and the
  /// per-row Receive overhead is gone. Expire/probe/insert order — and
  /// hence the result multiset — is identical to the row path.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  struct Side {
    size_t key_attr;
    std::unordered_map<Value, std::deque<Tuple>, ValueHash> table;
    // (key, timestamp) in arrival order for expiration.
    std::deque<std::pair<Value, AppTime>> expiry;
    size_t stored = 0;

    void Insert(const Tuple& tuple);
    void ExpireBefore(AppTime watermark);
  };

  AppTime window_micros_;
  Side sides_[2];
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_
