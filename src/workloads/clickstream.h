// Synthetic click-stream generator (WorldCup'98 stand-in; see DESIGN.md §2).
//
// Emits a chronological stream of click records. Each click picks its user
// from a Zipf distribution (user popularity in web logs is heavy-tailed)
// and a url from a smaller Zipf'd pool; the global clock advances by an
// exponential-ish inter-arrival so that per-user gaps — and therefore
// 5-minute session boundaries — arise naturally: popular users click in
// rapid succession (long multi-click sessions), tail users click rarely
// (mostly singleton sessions).
//
// Record layout: key = "" (input files are unkeyed), value = binary click:
//   [ts: fixed64 seconds][user: fixed64 rank][url: fixed32] + padding
// Padding brings the value to `record_bytes` so data volumes are realistic
// (web log lines are ~100 bytes).

#ifndef ONEPASS_WORKLOADS_CLICKSTREAM_H_
#define ONEPASS_WORKLOADS_CLICKSTREAM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/dfs/chunk_store.h"
#include "src/util/random.h"

namespace onepass {

struct Click {
  uint64_t ts = 0;    // seconds
  uint64_t user = 0;  // user rank
  uint32_t url = 0;   // url id
};

// Binary encoding used in input values and intermediate click payloads.
std::string EncodeClick(const Click& click, size_t record_bytes);
// Parses the fixed prefix; returns false if `data` is too short.
bool DecodeClick(std::string_view data, Click* click);

// Zero-padded decimal user key ("u000001234", 9 digits) and url key
// ("p00001234", 8 digits): fixed width, so byte-lexicographic order equals
// numeric order below 10^9 users and 10^8 urls. Larger ids keep every
// digit, so distinct ids always get distinct keys.
std::string UserKey(uint64_t user);
std::string UrlKey(uint32_t url);

struct ClickStreamConfig {
  uint64_t num_clicks = 1'000'000;
  uint64_t num_users = 50'000;
  uint32_t num_urls = 5'000;
  double user_skew = 1.0;        // Zipf exponent for user popularity
  double url_skew = 0.8;         // Zipf exponent for url popularity
  double clicks_per_second = 1000;  // global arrival rate
  size_t record_bytes = 64;      // value size incl. padding
  uint64_t seed = 1234;

  // Session model: the stream interleaves `active_sessions` concurrent
  // user sessions; each click belongs to a random active session, which
  // ends with probability 1/mean_session_clicks (the slot is refilled
  // with a fresh Zipf-drawn user). This reproduces web-log temporal
  // locality: a chunk contains few distinct users relative to its click
  // count, which is what makes map-side combining effective, and gives
  // users multi-click sessions separated by long gaps.
  int active_sessions = 50;
  double mean_session_clicks = 8.0;
};

// Generates the stream directly into a chunk store (records are appended
// in timestamp order, so DFS chunks are time-ordered like a real log).
void GenerateClickStream(const ClickStreamConfig& config, ChunkStore* out);

// The session-inactivity threshold used by every sessionization component.
inline constexpr uint64_t kSessionGapSeconds = 300;

}  // namespace onepass

#endif  // ONEPASS_WORKLOADS_CLICKSTREAM_H_
