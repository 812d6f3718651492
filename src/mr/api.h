// The user-facing MapReduce programming API.
//
// Two reduce-side contracts are supported, mirroring §4 of the paper:
//
//  * Reducer — the classic values-list API ("collect all values of a key,
//    feed the list to reduce"). Served by the sort-merge baseline and by
//    MR-hash (§4.1).
//
//  * IncrementalReducer — the paper's init()/cb()/fn() decomposition
//    (§4.2): initialize turns one value into a state, combine merges two
//    states, finalize produces output from a state. Served by INC-hash and
//    DINC-hash, and reused as the map-side combiner. Optional hooks let a
//    workload emit early results (frequent-user identification,
//    sessionization stream-out) and let DINC-hash discard finished states
//    instead of spilling them (§6.2's sessionization eviction rule).

#ifndef ONEPASS_MR_API_H_
#define ONEPASS_MR_API_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace onepass {

// Receives output records. Implementations count bytes and record I/O.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

// Transforms one input record into zero or more (key, value) pairs.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void Map(std::string_view key, std::string_view value,
                   Emitter* out) = 0;
};

// Streaming iterator over the values of one key.
class ValueIterator {
 public:
  virtual ~ValueIterator() = default;
  // Advances to the next value; false at end. The view is valid until the
  // next call.
  virtual bool Next(std::string_view* value) = 0;
};

// Classic reduce: applied to each key's full list of values.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(std::string_view key, ValueIterator* values,
                      Emitter* out) = 0;
};

// Incremental reduce: init/cb/fn per §4.2, plus early-output and eviction
// hooks. States are opaque byte strings owned by the engine.
class IncrementalReducer {
 public:
  virtual ~IncrementalReducer() = default;

  // init(): state for a single value. Applied map-side right after the map
  // function, turning key-value pairs into key-state pairs.
  virtual std::string Init(std::string_view key, std::string_view value) = 0;

  // cb(): folds `other` (another state for the same key) into `state`.
  // `other` never aliases `*state`: every caller passes a separately held
  // state, so an implementation may edit `*state` in place while it reads
  // `other`. Map-side folds run in emit order on every engine: a key's
  // later emits are folded, as `other`, into the state of its earlier ones.
  virtual void Combine(std::string_view key, std::string* state,
                       std::string_view other) = 0;

  // fn(): produces the final answer(s) for the key from its state.
  virtual void Finalize(std::string_view key, std::string_view state,
                        Emitter* out) = 0;

  // Early-output hook, called after each reduce-side Combine on the
  // in-memory state. May emit records and/or shrink the state (e.g. stream
  // out closed sessions, emit a user the moment its count reaches the
  // query threshold). Default: no early output.
  virtual void OnUpdate(std::string_view key, std::string* state,
                        Emitter* out) {
    (void)key;
    (void)state;
    (void)out;
  }

  // DINC-hash eviction hook: when the engine wants to drop this state from
  // memory, a workload may emit its output directly and discard it instead
  // of spilling (paper §6.2: a sessionization state whose sessions have all
  // expired is output, not spilled). Return true if the state was fully
  // handled and must NOT be written to disk.
  virtual bool TryDiscard(std::string_view key, std::string* state,
                          Emitter* out) {
    (void)key;
    (void)state;
    (void)out;
    return false;
  }

  // Whether DINC-hash must flush still-resident states into the disk
  // buckets at end of input so they merge with earlier spills of the same
  // key (required for algebraic aggregates like counts). Workloads whose
  // Finalize is locally correct (sessionization) return false and are
  // finalized straight from memory.
  virtual bool FlushResidentStatesAtEnd() const { return true; }

  // Bytes the engine should budget per resident state (the paper's
  // experiments vary this: 0.5 KB / 1 KB / 2 KB sessionization buffers).
  virtual uint64_t StateBytesHint() const { return 64; }
};

// Factories: each map/reduce task gets a fresh instance.
using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
using IncrementalReducerFactory =
    std::function<std::unique_ptr<IncrementalReducer>()>;

}  // namespace onepass

#endif  // ONEPASS_MR_API_H_
