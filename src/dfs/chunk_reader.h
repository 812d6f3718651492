// Verified, replica-aware read path over a ChunkStore (DESIGN.md §5.2).
//
// A ChunkReader is a per-job view: it frames each chunk replica's bytes in
// CRC32C blocks (what the simulated DFS "stores"), applies the FaultPlan's
// seeded corruption to the copy being read, and verifies at the read
// boundary. A replica that fails verification is quarantined for the rest
// of the job and — once a good copy is found — re-replicated onto a fresh
// node, so the post-recovery replica view feeds task placement. The read
// fails with Status::Corruption only when every replica is bad.
//
// The underlying ChunkStore is never mutated: benches re-run many jobs
// over one shared input, and each job must see the same pristine store.
//
// Concurrency (DESIGN.md §5.3): one ChunkReader is shared by all map
// tasks of a job, but Read(index) touches only chunk `index`'s replica
// slot (pre-sized at construction, so the outer vector never reallocates)
// and otherwise reads immutable state; corruption draws are pure functions
// of (chunk, replica). Concurrent Reads of *distinct* indices are safe;
// two concurrent Reads of the same index are not (the data plane never
// issues those — each map task owns its chunk). Call replicas() only
// after the reads that may reshape that chunk's view have completed.

#ifndef ONEPASS_DFS_CHUNK_READER_H_
#define ONEPASS_DFS_CHUNK_READER_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/dfs/chunk_store.h"
#include "src/sim/fault_injector.h"
#include "src/storage/framed_io.h"
#include "src/util/kv_buffer.h"

namespace onepass {

// Per-read accounting, folded into JobMetrics and the reading map task's
// cost trace by the caller.
struct ChunkReadStats {
  int replica_reads = 0;  // full replica reads issued (>= 1 on success)
  int quarantined = 0;    // replicas that failed verification
  uint64_t torn = 0;                // ...of which torn writes
  uint64_t verify_bytes = 0;        // payload bytes verified
  uint64_t overhead_bytes = 0;      // framing headers read alongside
  uint64_t rereplicated_bytes = 0;  // payload re-copied to a fresh node
};

class ChunkReader {
 public:
  // `store` must outlive the reader. `plan` may be null (no injection);
  // verification runs either way. The IntegrityConfig holds only
  // constants; the parameter stays because perfbench passes one.
  ChunkReader(const ChunkStore* store, const IntegrityConfig&,
              const sim::FaultPlan* plan);

  // Reads chunk `index`, trying replicas in placement order. On success
  // returns the verified records and re-replicates past any quarantined
  // copies; stats (always written) reflect the attempt sequence.
  Result<KvBuffer> Read(int index, ChunkReadStats* stats);

  // Replica holders of chunk `index` after any quarantine/re-replication
  // done by Read — the view task placement should use.
  const std::vector<int>& replicas(int index) const;

 private:
  const ChunkStore* store_;
  const sim::FaultPlan* plan_;
  int nodes_;
  // Post-recovery replica views, lazily initialized from the store.
  mutable std::vector<std::vector<int>> replicas_;
};

}  // namespace onepass

#endif  // ONEPASS_DFS_CHUNK_READER_H_
