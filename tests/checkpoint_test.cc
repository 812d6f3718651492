// Checkpoint unit behaviour (DESIGN.md §5.6): typed field streams that
// fail loudly on schema drift, encoded images whose damage is caught by
// the CRC framing, delta images whose forged or mutated op streams are
// rejected as Corruption, and — the core property — SaveCheckpoint /
// RestoreCheckpoint round trips through whole image chains on every engine
// that leave the final output byte-identical to an uninterrupted run. The
// restore ladder, which picks the image to resume from, is
// CheckpointLadder's (checkpoint_ladder_test).

#include "src/storage/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/storage/framed_io.h"
#include "src/util/coding.h"
#include "src/util/random.h"
#include "tests/engine_test_util.h"

namespace onepass {
namespace {

// ---- field stream round trips ----

TEST(CheckpointFieldsTest, TypedFieldsRoundTrip) {
  CheckpointWriter w;
  w.PutU64("count", 0);
  w.PutU64("big", UINT64_MAX);
  w.PutF64("size", 1234.5678);
  w.PutF64("tiny", 5e-324);  // denormal: bit-exactness matters
  w.PutBytes("blob", std::string("ab\0cd", 5));
  w.PutBytes("empty", "");

  CheckpointReader r(w.fields());
  uint64_t u = 1;
  ASSERT_TRUE(r.GetU64("count", &u).ok());
  EXPECT_EQ(u, 0u);
  ASSERT_TRUE(r.GetU64("big", &u).ok());
  EXPECT_EQ(u, UINT64_MAX);
  double d = 0;
  ASSERT_TRUE(r.GetF64("size", &d).ok());
  EXPECT_EQ(d, 1234.5678);
  ASSERT_TRUE(r.GetF64("tiny", &d).ok());
  EXPECT_EQ(d, 5e-324);
  std::string_view bytes;
  ASSERT_TRUE(r.GetBytes("blob", &bytes).ok());
  EXPECT_EQ(bytes, std::string_view("ab\0cd", 5));
  ASSERT_TRUE(r.GetBytes("empty", &bytes).ok());
  EXPECT_TRUE(bytes.empty());
}

TEST(CheckpointFieldsTest, NameMismatchIsCorruption) {
  CheckpointWriter w;
  w.PutU64("expected", 7);
  CheckpointReader r(w.fields());
  uint64_t u = 0;
  const Status s = r.GetU64("something_else", &u);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CheckpointFieldsTest, TypeMismatchIsCorruption) {
  CheckpointWriter w;
  w.PutU64("field", 7);
  CheckpointReader r(w.fields());
  double d = 0;
  const Status s = r.GetF64("field", &d);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CheckpointFieldsTest, ExhaustedStreamIsCorruption) {
  CheckpointWriter w;
  w.PutU64("only", 1);
  CheckpointReader r(w.fields());
  uint64_t u = 0;
  ASSERT_TRUE(r.GetU64("only", &u).ok());
  const Status s = r.GetU64("missing", &u);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// ---- encoded images ----

KvBuffer SampleFields() {
  CheckpointWriter w;
  w.PutU64("entries", 3);
  for (int i = 0; i < 3; ++i) {
    const std::string tag = std::to_string(i);
    w.PutBytes("k." + tag, "key" + tag);
    w.PutBytes("v." + tag, std::string(200, static_cast<char>('a' + i)));
  }
  w.PutF64("watermark", 0.5);
  return w.Take();
}

void ExpectSameFields(const KvBuffer& a, const KvBuffer& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.data(), b.data());
}

TEST(CheckpointImageTest, RawImageRoundTrips) {
  const KvBuffer fields = SampleFields();
  const EncodedCheckpoint image = EncodeCheckpoint(
      fields, BlockCodecKind::kNone, 48 << 10, /*integrity=*/128);
  EXPECT_FALSE(image.coded);
  EXPECT_EQ(image.raw_bytes, fields.bytes());
  EXPECT_EQ(image.payload_bytes, fields.bytes());
  EXPECT_GT(image.framed.size(), image.payload_bytes);  // CRC headers
  auto decoded = DecodeCheckpoint(image, image.framed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameFields(decoded.value(), fields);
}

TEST(CheckpointImageTest, CodedImageRoundTrips) {
  const KvBuffer fields = SampleFields();
  const EncodedCheckpoint image = EncodeCheckpoint(
      fields, BlockCodecKind::kLz, /*codec_block=*/256, /*integrity=*/128);
  EXPECT_TRUE(image.coded);
  EXPECT_EQ(image.raw_bytes, fields.bytes());
  // The long 'aaa...' values compress, so the stored payload shrinks.
  EXPECT_LT(image.payload_bytes, image.raw_bytes);
  auto decoded = DecodeCheckpoint(image, image.framed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameFields(decoded.value(), fields);
}

TEST(CheckpointImageTest, EveryFlippedBitIsCaught) {
  for (const BlockCodecKind codec :
       {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
    const EncodedCheckpoint image =
        EncodeCheckpoint(SampleFields(), codec, 256, 128);
    for (uint64_t bit = 0; bit < 8 * image.framed.size();
         bit += 97) {  // sample bits, coprime stride
      std::string bad = image.framed;
      FlipBit(&bad, bit);
      auto decoded = DecodeCheckpoint(image, bad);
      EXPECT_FALSE(decoded.ok()) << "bit " << bit << " escaped";
      EXPECT_TRUE(decoded.status().IsCorruption());
    }
  }
}

TEST(CheckpointImageTest, TornWriteIsCaught) {
  const EncodedCheckpoint image =
      EncodeCheckpoint(SampleFields(), BlockCodecKind::kNone, 256, 128);
  for (uint64_t keep = 1; keep < image.framed.size(); keep += 13) {
    std::string bad = image.framed;
    TornTruncate(&bad, keep);
    auto decoded = DecodeCheckpoint(image, bad);
    EXPECT_FALSE(decoded.ok()) << "torn at " << keep << " escaped";
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

// ---- delta images ----

// The delta layout checkpoint.h documents, for forging images by hand: a
// header record (link, base field count), then one record per op whose
// value starts with the op byte.
constexpr std::string_view kDeltaHeader("\0ckpt.delta", 11);

std::string Varints(std::initializer_list<uint64_t> values) {
  std::string out;
  for (const uint64_t v : values) PutVarint64(&out, v);
  return out;
}

KvBuffer ForgedDelta(
    uint64_t link, uint64_t base_fields,
    const std::vector<std::pair<std::string, std::string>>& ops) {
  KvBuffer delta;
  delta.Append(kDeltaHeader, Varints({link, base_fields}));
  for (const auto& [name, op] : ops) delta.Append(name, op);
  return delta;
}

// SampleFields after one more delivery: one value grew, one entry is new,
// two counters changed.
KvBuffer GrownFields() {
  CheckpointWriter w;
  w.PutU64("entries", 4);
  for (int i = 0; i < 4; ++i) {
    const std::string tag = std::to_string(i);
    w.PutBytes("k." + tag, "key" + tag);
    w.PutBytes("v." + tag,
               std::string(i == 1 ? 260 : 200, static_cast<char>('a' + i)));
  }
  w.PutF64("watermark", 0.75);
  return w.Take();
}

// A chain's second image: a delta of GrownFields against SampleFields.
KvBuffer SampleDelta() {
  CheckpointChain chain;
  chain.Next(SampleFields());
  KvBuffer delta = chain.Next(GrownFields());
  EXPECT_EQ(chain.links(), 2u);
  return delta;
}

TEST(CheckpointDeltaTest, DeltaCarriesOnlyChangesAndResolves) {
  const KvBuffer delta = SampleDelta();
  // Copy runs for the unchanged fields, one append for v.1, literals for
  // the rest: far smaller than the stream it rebuilds.
  std::map<char, int> ops;
  KvBufferReader reader(delta);
  std::string_view name, value;
  ASSERT_TRUE(reader.Next(&name, &value));
  EXPECT_EQ(name, kDeltaHeader);
  EXPECT_EQ(value, Varints({1, SampleFields().count()}));
  while (reader.Next(&name, &value)) ++ops[value[0]];
  EXPECT_GT(ops['c'], 0);
  EXPECT_EQ(ops['a'], 1);
  EXPECT_GT(ops['l'], 0);
  EXPECT_LT(delta.bytes(), GrownFields().bytes() / 2);

  auto resolved = ResolveCheckpointChain({SampleFields(), delta});
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ExpectSameFields(resolved.value(), GrownFields());
}

TEST(CheckpointDeltaTest, CompactsWhenDeltasOutgrowTheFullImage) {
  // Every save after the first rewrites one 400-byte field of a
  // 2,035-byte stream, so each delta is a little over a fifth of the full
  // image: four deltas fit, the fifth would push the chain's delta bytes
  // past the full image's and is written as a new full image instead.
  CheckpointChain chain;
  std::vector<char> fill(5, 'a');
  std::vector<uint32_t> links;
  for (int save = 0; save < 12; ++save) {
    if (save > 0) {
      fill[static_cast<size_t>(save % 5)] = static_cast<char>('a' + save);
    }
    CheckpointWriter w;
    for (size_t f = 0; f < fill.size(); ++f) {
      w.PutBytes("f." + std::to_string(f), std::string(400, fill[f]));
    }
    chain.Next(w.Take());
    links.push_back(chain.links());
  }
  EXPECT_EQ(links,
            (std::vector<uint32_t>{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2}));
}

TEST(CheckpointDeltaTest, ForgedDeltasAreCorruption) {
  const uint64_t n = SampleFields().count();
  struct Forged {
    const char* reason;  // what the Corruption message must name
    KvBuffer delta;
  };
  const Forged forged[] = {
      {"copy range past the base",
       ForgedDelta(1, n, {{"", "c" + Varints({n - 2, 3})}})},
      {"copy range past the base",
       ForgedDelta(1, n, {{"", "c" + Varints({1, UINT64_MAX})}})},
      {"append to a missing field",
       ForgedDelta(1, n, {{"", "a" + Varints({n}) + "tail"}})},
      {"base fields", ForgedDelta(1, n + 1, {{"", "c" + Varints({0, n})}})},
      {"out of sequence", ForgedDelta(2, n, {{"", "c" + Varints({0, n})}})},
      {"truncated op", ForgedDelta(1, n, {{"", "c" + Varints({0})}})},
      {"truncated op", ForgedDelta(1, n, {{"", "a"}})},
      {"truncated op", ForgedDelta(1, n, {{"k.9", ""}})},
      {"unknown op", ForgedDelta(1, n, {{"", "z"}})},
      {"not a delta image",
       KvBuffer::FromData(SampleFields().data(), SampleFields().count())},
  };
  for (const Forged& f : forged) {
    auto resolved = ResolveCheckpointChain({SampleFields(), f.delta});
    EXPECT_TRUE(resolved.status().IsCorruption()) << f.reason;
    EXPECT_NE(resolved.status().ToString().find(f.reason), std::string::npos)
        << resolved.status().ToString();
  }
  // A delta whose record bytes stop mid-op.
  std::string cut = SampleDelta().data();
  cut.resize(cut.size() - 3);
  auto truncated = ResolveCheckpointChain(
      {SampleFields(), KvBuffer::FromData(cut, SampleDelta().count())});
  EXPECT_TRUE(truncated.status().IsCorruption());
  // A valid delta in the wrong place: as a chain's first link, and as its
  // second delta.
  EXPECT_TRUE(ResolveCheckpointChain({SampleDelta()}).status().IsCorruption());
  EXPECT_TRUE(ResolveCheckpointChain({SampleFields(), SampleDelta(),
                                      SampleDelta()})
                  .status()
                  .IsCorruption());
}

TEST(CheckpointDeltaTest, StoreReturnsCorruptionForABadLink) {
  // A stored chain whose delta link verifies (its CRCs are sound) but does
  // not apply: resolving the decoded links returns Corruption instead of
  // aborting.
  const uint64_t n = SampleFields().count();
  std::vector<KvBuffer> links;
  for (const KvBuffer& image :
       {SampleFields(), ForgedDelta(1, n, {{"", "c" + Varints({n, 1})}})}) {
    const EncodedCheckpoint stored =
        EncodeCheckpoint(image, BlockCodecKind::kLz, 256, 128);
    auto decoded = DecodeCheckpoint(stored, stored.framed);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    links.push_back(std::move(decoded).value());
  }
  auto fields = ResolveCheckpointChain(std::move(links));
  EXPECT_TRUE(fields.status().IsCorruption()) << fields.status().ToString();
}

TEST(CheckpointDeltaTest, MutatedOpStreamsNeverAbort) {
  // Seeded mutations of a valid delta's op stream (not its framed bytes,
  // which the CRCs cover): every outcome is a stream or a Corruption.
  const KvBuffer base = SampleFields();
  const KvBuffer delta = SampleDelta();
  Xoshiro256StarStar rng(0xDE17A);
  int rejected = 0, resolved = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes = delta.data();
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits && !bytes.empty(); ++e) {
      const size_t at = rng.NextBounded(bytes.size());
      switch (rng.NextBounded(4)) {
        case 0:  // flip one bit
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextBounded(8)));
          break;
        case 1:  // overwrite one byte
          bytes[at] = static_cast<char>(rng.NextBounded(256));
          break;
        case 2:  // truncate
          bytes.resize(at);
          break;
        default:  // duplicate a slice
          bytes.insert(at, bytes.substr(at, rng.NextBounded(16)));
          break;
      }
    }
    auto out = ResolveCheckpointChain(
        {base, KvBuffer::FromData(std::move(bytes), delta.count())});
    if (out.ok()) {
      ++resolved;
    } else {
      ASSERT_TRUE(out.status().IsCorruption()) << out.status().ToString();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(resolved, 0);  // e.g. a flipped bit inside a literal's bytes
}

// ---- the in-place diff against the whole-stream reference ----

// The reference diff: the delta that turns `base` into `next` as link
// `link` of its chain, computed from the two whole streams. It is the
// format's definition; CheckpointChain computes the same ops in place, as
// each field is written.
KvBuffer ReferenceDiff(const KvBuffer& base, const KvBuffer& next,
                       uint32_t link) {
  std::vector<std::pair<std::string_view, std::string_view>> old;
  KvBufferReader base_reader(base);
  std::string_view name, payload;
  while (base_reader.Next(&name, &payload)) old.emplace_back(name, payload);
  KvBuffer delta;
  delta.Append(kDeltaHeader, Varints({link, old.size()}));

  // The base field after the last match is tried first, then the first
  // base field of that name.
  std::map<std::string_view, size_t> by_name;
  for (size_t i = 0; i < old.size(); ++i) by_name.emplace(old[i].first, i);
  size_t cursor = 0;
  uint64_t run_first = 0, run_count = 0;
  auto flush_run = [&] {
    if (run_count == 0) return;
    delta.Append({}, "c" + Varints({run_first, run_count}));
    run_count = 0;
  };
  KvBufferReader reader(next);
  while (reader.Next(&name, &payload)) {
    size_t j = old.size();
    if (cursor < old.size() && old[cursor].first == name) {
      j = cursor;
    } else if (const auto it = by_name.find(name); it != by_name.end()) {
      j = it->second;
    }
    if (j == old.size()) {
      flush_run();
      delta.Append(name, "l" + std::string(payload));
      continue;
    }
    cursor = j + 1;
    const std::string_view was = old[j].second;
    if (payload == was) {
      if (run_count > 0 && run_first + run_count == j) {
        ++run_count;
      } else {
        flush_run();
        run_first = j;
        run_count = 1;
      }
      continue;
    }
    flush_run();
    if (payload.size() > was.size() && payload.substr(0, was.size()) == was) {
      delta.Append({}, "a" + Varints({j}) +
                           std::string(payload.substr(was.size())));
    } else {
      delta.Append(name, "l" + std::string(payload));
    }
  }
  flush_run();
  return delta;
}

// The reference chain: a whole-stream diff per save, and the compaction
// rule (a full image once the chain's delta bytes would pass its full
// image's bytes).
class ReferenceChain {
 public:
  KvBuffer Next(const KvBuffer& full) {
    KvBuffer image;
    bool delta = false;
    if (links_ > 0) {
      image = ReferenceDiff(base_, full, links_);
      delta = delta_bytes_ + image.bytes() <= full_bytes_;
    }
    if (delta) {
      delta_bytes_ += image.bytes();
      ++links_;
    } else {
      image = full;
      full_bytes_ = full.bytes();
      delta_bytes_ = 0;
      links_ = 1;
    }
    base_ = full;
    return image;
  }
  uint32_t links() const { return links_; }

 private:
  KvBuffer base_;
  uint64_t full_bytes_ = 0, delta_bytes_ = 0;
  uint32_t links_ = 0;
};

// One field of the state the property test evolves.
struct TestField {
  std::string name;
  char type;  // 'u', 'f' or 'b'
  uint64_t u = 0;
  double f = 0;
  std::string bytes;
};

void WriteFields(const std::vector<TestField>& fields, CheckpointWriter* w) {
  for (const TestField& field : fields) {
    if (field.type == 'u') {
      w->PutU64(field.name, field.u);
    } else if (field.type == 'f') {
      w->PutF64(field.name, field.f);
    } else {
      w->PutBytes(field.name, field.bytes);
    }
  }
}

std::string RandomText(Xoshiro256StarStar* rng, size_t max_len) {
  std::string s(rng->NextBounded(max_len + 1), ' ');
  for (char& c : s) c = static_cast<char>('a' + rng->NextBounded(4));
  return s;
}

// The edits a save can see; each one's count must be non-zero at the end.
enum Edit { kGrow, kShrink, kChange, kInsert, kDelete, kReorder, kRename,
            kEditKinds };

TEST(CheckpointDiffTest, InPlaceDiffMatchesTheReferenceChain) {
  std::vector<int> edits(kEditKinds, 0);
  std::map<char, int> ops;
  int compactions = 0, unchanged_saves = 0, empty_payloads = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256StarStar rng(seed);
    uint64_t next_name = 0;
    auto new_field = [&] {
      TestField f;
      f.name = "f." + std::to_string(next_name++);
      f.type = "ufb"[rng.NextBounded(3)];
      f.u = rng.Next() >> rng.NextBounded(64);
      f.f = rng.NextDouble() * 1e6;
      f.bytes = RandomText(&rng, rng.NextBool(0.1) ? 300 : 24);
      return f;
    };
    std::vector<TestField> fields;
    for (uint64_t i = rng.NextBounded(30); i > 0; --i) {
      fields.push_back(new_field());
    }
    CheckpointChain chain, replayed;
    ReferenceChain reference;
    std::vector<KvBuffer> links;
    for (int save = 0; save < 60; ++save) {
      const uint64_t n_edits = rng.NextBounded(5);
      if (n_edits == 0) ++unchanged_saves;
      for (uint64_t e = 0; e < n_edits; ++e) {
        const auto kind = static_cast<Edit>(rng.NextBounded(kEditKinds));
        if (fields.empty() && kind != kInsert) continue;
        const size_t pick = fields.empty() ? 0 : rng.NextBounded(fields.size());
        const auto pos = [&](size_t i) {
          return fields.begin() + static_cast<std::ptrdiff_t>(i);
        };
        TestField* const at = fields.empty() ? nullptr : &fields[pick];
        switch (kind) {
          case kGrow:
            if (at->type != 'b') continue;
            at->bytes += RandomText(&rng, 12) + "g";
            break;
          case kShrink:
            if (at->type != 'b' || at->bytes.empty()) continue;
            at->bytes.resize(rng.NextBounded(at->bytes.size()));
            break;
          case kChange:
            at->u += 1 + rng.NextBounded(1000);
            at->f = -at->f + 1;
            at->bytes = RandomText(&rng, 24);
            break;
          case kInsert:
            fields.insert(pos(rng.NextBounded(fields.size() + 1)),
                          new_field());
            break;
          case kDelete:
            fields.erase(pos(pick));
            break;
          case kReorder: {
            TestField moved = std::move(*at);
            fields.erase(pos(pick));
            fields.insert(pos(rng.NextBounded(fields.size() + 1)),
                          std::move(moved));
            break;
          }
          case kRename: {  // a second field of an existing name
            TestField twin{at->name, 'b', 0, 0, RandomText(&rng, 8)};
            fields.insert(pos(rng.NextBounded(fields.size() + 1)),
                          std::move(twin));
            break;
          }
          case kEditKinds:
            break;
        }
        ++edits[kind];
      }
      for (const TestField& f : fields) {
        empty_payloads += f.type == 'b' && f.bytes.empty();
      }

      CheckpointWriter full;
      WriteFields(fields, &full);
      const KvBuffer expect = reference.Next(full.fields());
      CheckpointWriter w;
      ASSERT_TRUE(chain
                      .Save(&w,
                            [&fields](CheckpointWriter* s) {
                              WriteFields(fields, s);
                              return Status::OK();
                            })
                      .ok());
      const std::string where =
          "seed " + std::to_string(seed) + " save " + std::to_string(save);
      ASSERT_EQ(w.fields().data(), expect.data()) << where;
      ASSERT_EQ(w.fields().count(), expect.count()) << where;
      ASSERT_EQ(chain.links(), reference.links()) << where;
      ASSERT_EQ(replayed.Next(full.fields()).data(), expect.data()) << where;

      // The chain so far rebuilds the stream.
      if (chain.links() == 1) {
        compactions += !links.empty();
        links.clear();
      }
      links.push_back(w.Take());
      auto resolved = ResolveCheckpointChain(links);
      ASSERT_TRUE(resolved.ok()) << where << ": "
                                 << resolved.status().ToString();
      ExpectSameFields(resolved.value(), full.fields());
      if (chain.links() > 1) {
        KvBufferReader reader(links.back());
        std::string_view name, value;
        reader.Next(&name, &value);  // the header
        while (reader.Next(&name, &value)) ++ops[value[0]];
      }
    }
  }
  for (int kind = 0; kind < kEditKinds; ++kind) {
    EXPECT_GT(edits[kind], 0) << "edit kind " << kind << " never ran";
  }
  EXPECT_GT(ops['c'], 0);
  EXPECT_GT(ops['a'], 0);
  EXPECT_GT(ops['l'], 0);
  EXPECT_GT(compactions, 0);
  EXPECT_GT(unchanged_saves, 0);
  EXPECT_GT(empty_payloads, 0);
}

TEST(CheckpointDiffTest, FailedSaveLeavesTheChainAsItWas) {
  // A save whose state walk fails stores nothing: the next save diffs
  // against the last good stream, as if the failed one never ran.
  CheckpointChain chain;
  ReferenceChain reference;
  chain.Next(SampleFields());
  reference.Next(SampleFields());
  CheckpointWriter w;
  const Status failed = chain.Save(&w, [](CheckpointWriter* s) {
    s->PutU64("entries", 99);
    return Status::Internal("state walk failed");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(chain.links(), 1u);
  EXPECT_EQ(chain.Next(GrownFields()).data(),
            reference.Next(GrownFields()).data());
  EXPECT_EQ(chain.links(), 2u);
}

// ---- mid-stream save/restore equivalence on every engine ----

// The padded-sum workload family of the config-space harness's property
// sweep: counts fold identically in any order, padding stresses memory
// budgets.
uint64_t ParseCount(std::string_view v) {
  uint64_t c = 0;
  for (char ch : v) {
    if (ch == ':') break;
    c = c * 10 + static_cast<uint64_t>(ch - '0');
  }
  return c;
}

class SumIncReducer : public IncrementalReducer {
 public:
  std::string Init(std::string_view, std::string_view value) override {
    return std::string(value);
  }
  void Combine(std::string_view, std::string* state,
               std::string_view other) override {
    *state = std::to_string(ParseCount(*state) + ParseCount(other)) + ":p";
  }
  void Finalize(std::string_view key, std::string_view state,
                Emitter* out) override {
    out->Emit(key, std::to_string(ParseCount(state)));
  }
  uint64_t StateBytesHint() const override { return 16; }
};

class SumListReducer : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              Emitter* out) override {
    uint64_t sum = 0;
    std::string_view v;
    while (values->Next(&v)) sum += ParseCount(v);
    out->Emit(key, std::to_string(sum));
  }
};

std::vector<KvBuffer> CheckpointWorkload(bool sorted, size_t deliveries = 10,
                                         int records = 4000) {
  Xoshiro256StarStar rng = PerTaskRng(0xC4E0, 7);
  ZipfGenerator zipf(400, 0.9);
  std::vector<std::vector<std::pair<std::string, std::string>>> pairs(
      deliveries);
  for (int i = 0; i < records; ++i) {
    std::string key = "k" + std::to_string(zipf.Next(&rng));
    std::string value = std::to_string(1 + rng.NextBounded(5));
    value += ':';
    value.append(static_cast<size_t>(rng.NextBounded(24)), 'p');
    pairs[static_cast<size_t>(i) % pairs.size()].emplace_back(
        std::move(key), std::move(value));
  }
  std::vector<KvBuffer> segments;
  for (auto& seg : pairs) {
    segments.push_back(MakeSegment(std::move(seg), sorted));
  }
  return segments;
}

EngineHarness MakeCheckpointHarness(EngineKind kind, BlockCodecKind codec) {
  EngineHarness h;
  // Tight memory: every engine spills (SM runs, MR/INC/DINC disk
  // buckets), so the checkpoint must carry on-disk manifests, not just
  // resident state. SumIncReducer's Init is the identity, so the raw
  // values INC/DINC receive are already states.
  h.config.reduce_memory_bytes = 8 << 10;
  h.config.bucket_page_bytes = 1 << 10;
  h.config.merge_factor = 4;
  h.config.block_codec = codec;
  const bool incremental =
      kind == EngineKind::kIncHash || kind == EngineKind::kDincHash;
  if (incremental) {
    h.inc = std::make_unique<SumIncReducer>();
  } else {
    h.reducer = std::make_unique<SumListReducer>();
  }
  EXPECT_TRUE(h.Init(kind, /*values_are_states=*/incremental).ok());
  return h;
}

std::vector<Record> RunStraightThrough(EngineKind kind, BlockCodecKind codec,
                                       const std::vector<KvBuffer>& segs,
                                       bool sorted) {
  EngineHarness h = MakeCheckpointHarness(kind, codec);
  for (const KvBuffer& seg : segs) {
    EXPECT_TRUE(h.Consume(seg, sorted).ok());
  }
  EXPECT_TRUE(h.Finish().ok());
  return std::move(h.outputs);
}

// Consumes `cut` segments, saves, pushes the image through the full
// encode/frame/decode path, restores into a FRESH engine, and finishes
// from there.
std::vector<Record> RunWithMidStreamRestore(
    EngineKind kind, BlockCodecKind codec,
    const std::vector<KvBuffer>& segs, bool sorted, size_t cut) {
  EngineHarness first = MakeCheckpointHarness(kind, codec);
  for (size_t i = 0; i < cut; ++i) {
    EXPECT_TRUE(first.Consume(segs[i], sorted).ok());
  }
  CheckpointWriter w;
  EXPECT_TRUE(first.engine->SaveCheckpoint(&w).ok());
  const EncodedCheckpoint image =
      EncodeCheckpoint(w.fields(), codec, JobConfig::codec_block_bytes,
                       IntegrityConfig::block_bytes);
  auto fields = DecodeCheckpoint(image, image.framed);
  EXPECT_TRUE(fields.ok()) << fields.status().ToString();

  EngineHarness second = MakeCheckpointHarness(kind, codec);
  CheckpointReader r(fields.value());
  EXPECT_TRUE(second.engine->RestoreCheckpoint(&r).ok());
  for (size_t i = cut; i < segs.size(); ++i) {
    EXPECT_TRUE(second.Consume(segs[i], sorted).ok());
  }
  EXPECT_TRUE(second.Finish().ok());
  return std::move(second.outputs);
}

void ExpectSameRecords(const std::vector<Record>& a,
                       const std::vector<Record>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << label << " record " << i;
    EXPECT_EQ(a[i].value, b[i].value) << label << " record " << i;
  }
}

TEST(CheckpointEngineTest, MidStreamRestoreIsByteIdenticalOnAllEngines) {
  constexpr EngineKind kKinds[] = {EngineKind::kSortMerge,
                                   EngineKind::kMRHash, EngineKind::kIncHash,
                                   EngineKind::kDincHash};
  for (const EngineKind kind : kKinds) {
    const bool sorted = kind == EngineKind::kSortMerge;
    const std::vector<KvBuffer> segs = CheckpointWorkload(sorted);
    for (const BlockCodecKind codec :
         {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
      const std::string label =
          std::string(EngineKindName(kind)) +
          (codec == BlockCodecKind::kLz ? "+lz" : "+raw");
      const std::vector<Record> straight =
          RunStraightThrough(kind, codec, segs, sorted);
      ASSERT_FALSE(straight.empty()) << label;
      // Save/restore at several watermarks, including first-delivery and
      // last-delivery boundaries.
      for (const size_t cut : {size_t{1}, segs.size() / 2, segs.size()}) {
        const std::vector<Record> resumed =
            RunWithMidStreamRestore(kind, codec, segs, sorted, cut);
        ExpectSameRecords(straight, resumed,
                          label + " cut=" + std::to_string(cut));
      }
    }
  }
}

// ---- chains of delta images on every engine ----

// One engine run that saves a checkpoint after every `every`-th delivery
// and keeps each encoded image with the length of the chain it ends.
struct SavedRun {
  std::vector<EncodedCheckpoint> images;
  std::vector<uint32_t> links;       // chain length ending at each image
  std::vector<size_t> watermarks;    // deliveries consumed before it
  std::vector<Record> outputs;
};

SavedRun RunSavingEvery(EngineKind kind, BlockCodecKind codec,
                        const std::vector<KvBuffer>& segs, bool sorted,
                        size_t every) {
  SavedRun run;
  EngineHarness h = MakeCheckpointHarness(kind, codec);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_TRUE(h.Consume(segs[i], sorted).ok());
    if ((i + 1) % every != 0) continue;
    CheckpointWriter w;
    EXPECT_TRUE(h.engine->SaveCheckpoint(&w).ok());
    run.images.push_back(EncodeCheckpoint(w.fields(), codec,
                                          JobConfig::codec_block_bytes,
                                          IntegrityConfig::block_bytes));
    run.links.push_back(h.engine->checkpoint_links());
    run.watermarks.push_back(i + 1);
  }
  EXPECT_TRUE(h.Finish().ok());
  run.outputs = std::move(h.outputs);
  return run;
}

// Restores a fresh engine from image `last` — every stored link of the
// chain it ends decoded, then resolved to a full stream — then consumes
// the rest of the deliveries and finishes.
std::vector<Record> ResumeFrom(EngineKind kind, BlockCodecKind codec,
                               const std::vector<KvBuffer>& segs,
                               bool sorted, const SavedRun& run,
                               size_t last) {
  std::vector<KvBuffer> links;
  for (size_t k = last + 1 - run.links[last]; k <= last; ++k) {
    auto link = DecodeCheckpoint(run.images[k], run.images[k].framed);
    EXPECT_TRUE(link.ok()) << link.status().ToString();
    if (!link.ok()) return {};
    links.push_back(std::move(link).value());
  }
  auto fields = ResolveCheckpointChain(std::move(links));
  EXPECT_TRUE(fields.ok()) << fields.status().ToString();
  if (!fields.ok()) return {};

  EngineHarness h = MakeCheckpointHarness(kind, codec);
  CheckpointReader r(fields.value());
  EXPECT_TRUE(h.engine->RestoreCheckpoint(&r).ok());
  for (size_t i = run.watermarks[last]; i < segs.size(); ++i) {
    EXPECT_TRUE(h.Consume(segs[i], sorted).ok());
  }
  EXPECT_TRUE(h.Finish().ok());
  return std::move(h.outputs);
}

TEST(CheckpointEngineTest, ChainRestoresAreByteIdenticalOnAllEngines) {
  constexpr EngineKind kKinds[] = {EngineKind::kSortMerge,
                                   EngineKind::kMRHash, EngineKind::kIncHash,
                                   EngineKind::kDincHash};
  for (const EngineKind kind : kKinds) {
    const bool sorted = kind == EngineKind::kSortMerge;
    const std::vector<KvBuffer> segs =
        CheckpointWorkload(sorted, /*deliveries=*/20, /*records=*/3000);
    for (const BlockCodecKind codec :
         {BlockCodecKind::kNone, BlockCodecKind::kLz}) {
      const std::vector<Record> straight =
          RunStraightThrough(kind, codec, segs, sorted);
      ASSERT_FALSE(straight.empty());
      for (const size_t every : {size_t{1}, size_t{3}}) {
        const std::string label =
            std::string(EngineKindName(kind)) +
            (codec == BlockCodecKind::kLz ? "+lz" : "+raw") +
            " every=" + std::to_string(every);
        const SavedRun run = RunSavingEvery(kind, codec, segs, sorted, every);
        // Saving never changes the answer.
        ExpectSameRecords(straight, run.outputs, label + " saving run");

        // The sequence holds deltas and at least one compaction (a full
        // image after the first) that a delta follows.
        size_t compaction = 0, mid_delta = 0;
        for (size_t k = 1; k + 1 < run.links.size(); ++k) {
          if (compaction == 0 && run.links[k] == 1 && run.links[k + 1] == 2) {
            compaction = k;
          }
          if (mid_delta == 0 && run.links[k] > 1 &&
              run.links[k + 1] == run.links[k] + 1) {
            mid_delta = k;
          }
        }
        ASSERT_GT(compaction, 0u) << label << ": no compaction";
        ASSERT_GT(mid_delta, 0u) << label << ": no mid-chain delta";

        for (const size_t last : {size_t{0}, mid_delta, compaction + 1,
                                  run.links.size() - 1}) {
          ExpectSameRecords(
              straight, ResumeFrom(kind, codec, segs, sorted, run, last),
              label + " from image " + std::to_string(last) + " (links " +
                  std::to_string(run.links[last]) + ")");
        }
      }
    }
  }
}

}  // namespace
}  // namespace onepass
