#include "src/mr/node_combine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/logging.h"
#include "src/engine/sorted_merge.h"
#include "src/sketch/frequent.h"
#include "src/util/flat_table.h"
#include "src/util/kv_buffer.h"

namespace onepass {

NodeCombiner::NodeCombiner(const JobConfig& config,
                           const UniversalHash& partitioner,
                           int total_partitions, IncrementalReducer* inc)
    : config_(config),
      partitioner_(partitioner),
      total_partitions_(total_partitions),
      inc_(inc) {
  CHECK(inc != nullptr) << "node combine needs a combine function";
}

NodeCombineOutput NodeCombiner::Run(
    const std::vector<const MapTaskOutput*>& feeds, bool sorted) const {
  NodeCombineOutput out;
  TraceRecorder trace(&out.trace);
  const CostModel& costs = config_.costs;
  trace.Cpu(costs.task_start_s, OpTag::kStartup);

  // Per-shard memory budget: the node's budget split evenly over its
  // partition shards (each shard is an independent table).
  const uint64_t shard_budget =
      config_.node_combine_budget_bytes == 0
          ? 0
          : std::max<uint64_t>(
                1, config_.node_combine_budget_bytes /
                       static_cast<uint64_t>(std::max(1, total_partitions_)));

  std::vector<KvBuffer> combined(total_partitions_);
  uint64_t out_bytes = 0, out_records = 0, in_records = 0, combines = 0;
  std::string scratch;

  for (int p = 0; p < total_partitions_; ++p) {
    KvBuffer& dst = combined[p];

    if (sorted) {
      // Sorted feeds (kSortCombine): stream-merge the key-ordered buffers
      // in task-id order and combine key groups. Bounded by one merge
      // heap, so the budget/sketch machinery never engages; output stays
      // key-ordered for the sort-merge reduce engine.
      std::vector<const KvBuffer*> inputs;
      for (const MapTaskOutput* feed : feeds) {
        if (p < static_cast<int>(feed->node_feed.size()) &&
            !feed->node_feed[p].empty()) {
          inputs.push_back(&feed->node_feed[p]);
        }
      }
      if (inputs.empty()) continue;
      SortedKvMerger merger(std::move(inputs));
      combines += merger.MergeInto(&dst, inc_);
      in_records += merger.records_merged();
      out_records += dst.count();
      out_bytes += dst.bytes();
      continue;
    }

    // Hash feeds: a FlatTable keyed by the partitioner digest combines
    // duplicate states; under budget pressure the shard degrades to the
    // FREQUENT sketch (header comment).
    FlatTable table;
    std::unique_ptr<FrequentSketch> sketch;
    std::vector<std::string> slot_states;
    for (const MapTaskOutput* feed : feeds) {
      if (p >= static_cast<int>(feed->node_feed.size())) continue;
      KvBufferReader reader(feed->node_feed[p]);
      std::string_view key, state;
      while (reader.Next(&key, &state)) {
        ++in_records;
        const uint64_t digest = partitioner_(key);
        if (sketch == nullptr) {
          const uint32_t found = table.Find(key, digest);
          if (found != FlatTable::kNoEntry) {
            const std::string_view cur = table.value_at(found);
            scratch.assign(cur.data(), cur.size());
            inc_->Combine(key, &scratch, state);
            table.set_value(found, scratch);
            ++combines;
          } else {
            bool inserted = false;
            const uint32_t idx = table.FindOrInsert(key, digest, &inserted);
            table.set_value(idx, state);
          }
          // Budget check AFTER the update so the measured footprint
          // (Arena::ApproxMemoryUsage through the table) reflects every
          // byte this shard actually holds.
          if (shard_budget > 0 && table.ApproxMemoryUsage() > shard_budget) {
            // Degrade: flush the table's entries as partial aggregates
            // (reducers re-combine them) and monitor only the sketch's
            // slots from here on.
            table.ForEach([&](uint32_t idx) {
              dst.Append(table.key_at(idx), table.value_at(idx));
            });
            table.FlushStatsTo(&out.metrics);
            table.Clear();
            const size_t slots = static_cast<size_t>(
                std::max<uint64_t>(16, shard_budget / 256));
            sketch = std::make_unique<FrequentSketch>(slots);
            slot_states.assign(slots, std::string());
            ++out.metrics.node_combine_sketch_shards;
          }
          continue;
        }
        // Sketch mode: the classic FREQUENT policy with the reduce state
        // as the slot payload. Evicted and rejected records pass through
        // uncombined — still exact, just not collapsed.
        FrequentSketch::OfferResult r = sketch->Offer(key, digest);
        switch (r.action) {
          case FrequentSketch::Action::kUpdated:
            inc_->Combine(key, &slot_states[r.slot], state);
            ++combines;
            break;
          case FrequentSketch::Action::kInserted:
            slot_states[r.slot].assign(state.data(), state.size());
            break;
          case FrequentSketch::Action::kEvicted:
            dst.Append(r.evicted_key, slot_states[r.slot]);
            ++out.metrics.node_combine_passthrough_records;
            slot_states[r.slot].assign(state.data(), state.size());
            break;
          case FrequentSketch::Action::kRejected:
            dst.Append(key, state);
            ++out.metrics.node_combine_passthrough_records;
            break;
        }
      }
    }
    if (sketch != nullptr) {
      for (int s = 0; s < static_cast<int>(sketch->capacity()); ++s) {
        if (sketch->SlotOccupied(s)) dst.Append(sketch->Key(s), slot_states[s]);
      }
      sketch->FlushIndexStatsTo(&out.metrics);
    } else {
      table.ForEach([&](uint32_t idx) {
        dst.Append(table.key_at(idx), table.value_at(idx));
      });
      table.FlushStatsTo(&out.metrics);
    }
    out_records += dst.count();
    out_bytes += dst.bytes();
  }

  if (sorted) {
    trace.Cpu(costs.MergeCost(in_records) +
                  costs.combine_record_s * static_cast<double>(combines),
              OpTag::kNodeCombine);
  } else {
    trace.Cpu((costs.hash_record_s + costs.combine_record_s) *
                  static_cast<double>(in_records),
              OpTag::kNodeCombine);
  }
  out.push = PublishPushSegment(config_, std::move(combined), out_bytes,
                                out_records, sorted, OpTag::kNodeCombine,
                                &trace, &out.metrics);

  out.metrics.node_combine_output_records += out_records;
  out.metrics.node_combine_output_bytes += out_bytes;
  out.metrics.node_combine_tasks += 1;
  return out;
}

}  // namespace onepass
