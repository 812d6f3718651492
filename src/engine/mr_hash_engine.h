// MRHashEngine: the paper's baseline hash technique (§4.1).
//
// Hybrid-hash partitioning in the style of hybrid hash join [Shapiro 86]:
// h2 splits the reducer's input into buckets. Bucket D1 stays entirely in
// memory; the others stream to disk through paged write buffers. After all
// input arrives, D1 is grouped in memory with h3 and the reduce function is
// applied per group; then each on-disk bucket is read back one at a time —
// a bucket that fits in memory is processed directly, one that does not is
// recursively partitioned with the next hash function (h4, h5, ...).
//
// MR-hash exactly matches the classic values-list reduce API. Unlike
// sort-merge there is no map-side sort and no blocking multi-pass merge,
// but reduce work still cannot start before end of input, so its progress
// plateaus at 33% (shuffle only) until the maps finish — Fig. 7(a)/(b).
//
// The in-memory group-by is a FlatTable whose entries hold the head/tail
// of a chain of value nodes (views into the bucket buffer — values are
// never copied), hashed once per tuple with the pass's UniversalHash.

#ifndef ONEPASS_ENGINE_MR_HASH_ENGINE_H_
#define ONEPASS_ENGINE_MR_HASH_ENGINE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/engine/group_by_engine.h"
#include "src/storage/bucket_manager.h"
#include "src/util/flat_table.h"
#include "src/util/kv_buffer.h"

namespace onepass {

class MRHashEngine : public GroupByEngine {
 public:
  explicit MRHashEngine(const EngineContext& ctx);

  Status Consume(const KvBuffer& segment, bool sorted) override;
  Status Finish() override;
  // The resident D1 bucket, its demotion flag, and the disk-bucket file
  // manifest. The Finish-time grouping structures (group_table_, nodes_)
  // are scratch and carry no mid-stream state.
  Status SaveState(CheckpointWriter* w) const override;
  Status RestoreState(CheckpointReader* r) override;

  // Chooses the number of on-disk buckets so that, per the hybrid-hash
  // analysis, each bucket of an `expected_bytes` input fits in a memory of
  // `memory_bytes` while D1 = memory - h write-buffer pages stays resident.
  // Returns 0 when everything fits in memory.
  static int ChooseNumBuckets(uint64_t expected_bytes, uint64_t memory_bytes,
                              uint64_t page_bytes);

 private:
  // Per-group chain through nodes_: FlatTable entry value (fits inline).
  struct ChainRef {
    uint32_t head;
    uint32_t tail;
  };
  // One value occurrence; `next` indexes nodes_ (UINT32_MAX ends a chain).
  struct ValueNode {
    const char* ptr;
    uint32_t len;
    uint32_t next;
  };

  // Groups `data` in memory using hash `level` and reduces every group.
  void ProcessInMemory(const KvBuffer& data, uint64_t level);
  // Processes a bucket that may exceed memory: in-memory if it fits, else
  // recursive partitioning with hash `level`. `owner` is the integrity
  // owner id a sub-partition manager created here would carry (stable
  // across runs so corruption draws are deterministic).
  Status ProcessBucket(KvBuffer data, uint64_t level, int depth,
                       uint64_t owner);

  int num_disk_buckets_;        // h (excluding D1)
  uint64_t d1_capacity_bytes_;  // memory available to D1
  bool d1_demoted_ = false;     // D1 overflowed and moved to disk
  KvBuffer d1_;
  std::unique_ptr<BucketFileManager> buckets_;  // null when h == 0
  UniversalHash h2_;
  // Grouping scratch, recycled across passes.
  FlatTable group_table_;  // key -> ChainRef
  std::vector<ValueNode> nodes_;
  std::vector<uint64_t> digest_scratch_;  // batch-plane digests (§5.8)
  std::vector<std::string_view> chain_scratch_;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_MR_HASH_ENGINE_H_
