#include "src/workloads/documents.h"

#include <string>

#include "src/common/logging.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace onepass {

void GenerateDocuments(const DocumentCorpusConfig& config, ChunkStore* out) {
  CHECK_GE(config.words_per_record, 3);
  Xoshiro256StarStar rng(config.seed);
  ZipfGenerator words(config.vocabulary, config.word_skew);
  std::string line;
  for (uint64_t r = 0; r < config.num_records; ++r) {
    line.clear();
    for (int w = 0; w < config.words_per_record; ++w) {
      if (w > 0) line.push_back(' ');
      line.push_back('w');
      PutDecimal(&line, words.Next(&rng), 6);
    }
    out->Append("", line);
  }
  out->Seal();
}

}  // namespace onepass
