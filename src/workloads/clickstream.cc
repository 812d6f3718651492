#include "src/workloads/clickstream.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/util/coding.h"

namespace onepass {

std::string EncodeClick(const Click& click, size_t record_bytes) {
  std::string out;
  out.reserve(record_bytes);
  PutFixed64(&out, click.ts);
  PutFixed64(&out, click.user);
  PutFixed32(&out, click.url);
  if (out.size() < record_bytes) out.resize(record_bytes, 'x');
  return out;
}

bool DecodeClick(std::string_view data, Click* click) {
  if (data.size() < 20) return false;
  click->ts = DecodeFixed64(data.data());
  click->user = DecodeFixed64(data.data() + 8);
  click->url = DecodeFixed32(data.data() + 16);
  return true;
}

std::string UserKey(uint64_t user) {
  std::string key(1, 'u');
  PutDecimal(&key, user, 9);
  return key;
}

std::string UrlKey(uint32_t url) {
  std::string key(1, 'p');
  PutDecimal(&key, url, 8);
  return key;
}

void GenerateClickStream(const ClickStreamConfig& config, ChunkStore* out) {
  CHECK_GT(config.num_clicks, 0u);
  CHECK_GT(config.num_users, 0u);
  CHECK_GT(config.clicks_per_second, 0.0);
  CHECK_GE(config.active_sessions, 1);
  CHECK_GE(config.mean_session_clicks, 1.0);
  Xoshiro256StarStar rng(config.seed);
  ZipfGenerator users(config.num_users, config.user_skew);
  ZipfGenerator urls(config.num_urls, config.url_skew);

  // Pool of concurrently active sessions.
  std::vector<uint64_t> active(config.active_sessions);
  for (auto& u : active) u = users.Next(&rng);
  const double end_prob = 1.0 / config.mean_session_clicks;

  double clock = 0;
  const double mean_gap = 1.0 / config.clicks_per_second;
  for (uint64_t i = 0; i < config.num_clicks; ++i) {
    // Exponential-ish inter-arrival (inverse-CDF of Exp(rate)).
    const double u = rng.NextDouble();
    clock += -mean_gap * std::log(1.0 - u + 1e-12);
    const size_t slot =
        static_cast<size_t>(rng.NextBounded(active.size()));
    Click c;
    c.ts = static_cast<uint64_t>(clock);
    c.user = active[slot];
    c.url = static_cast<uint32_t>(urls.Next(&rng));
    out->Append("", EncodeClick(c, config.record_bytes));
    if (rng.NextBool(end_prob)) active[slot] = users.Next(&rng);
  }
  out->Seal();
}

}  // namespace onepass
