// Plain-loop fallback driver for the fuzz harnesses.
//
// A harness (today fuzz_json.cpp) exports the standard libFuzzer entry point
// LLVMFuzzerTestOneInput. Built with -DRADIO_FUZZ_LIBFUZZER=ON (clang only)
// it becomes a real coverage-guided fuzzer; in the default build this file
// supplies main(): it replays every committed corpus file, then runs a
// deterministic mutation loop over the corpus so ctest and scripts/ci.sh
// exercise the parser against thousands of corrupted inputs on every run, no
// fuzzer runtime required.
//
//   fuzz_<target> CORPUS_DIR [--iters N] [--seed S]
//
// Exit code 0 = survived; the harness aborts (non-zero) on any invariant
// violation, and sanitizers turn memory bugs into failures.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

int run_one(const std::string& data) {
  return LLVMFuzzerTestOneInput(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

std::vector<std::string> load_corpus(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  // directory_iterator order is unspecified; sort so runs are reproducible.
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const auto& path : paths) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    corpus.push_back(buffer.str());
  }
  return corpus;
}

/// One random corruption: byte flip, truncation, insertion, slice
/// duplication, or a splice of two corpus entries.
std::string mutate(const std::vector<std::string>& corpus,
                   std::mt19937_64& rng) {
  std::string data = corpus[rng() % corpus.size()];
  const int edits = 1 + static_cast<int>(rng() % 8);
  for (int e = 0; e < edits; ++e) {
    switch (rng() % 5) {
      case 0:  // flip a byte
        if (!data.empty())
          data[rng() % data.size()] = static_cast<char>(rng() & 0xFF);
        break;
      case 1:  // truncate
        if (!data.empty()) data.resize(rng() % data.size());
        break;
      case 2:  // insert a random byte
        data.insert(data.begin() + static_cast<std::ptrdiff_t>(
                                       data.empty() ? 0 : rng() % data.size()),
                    static_cast<char>(rng() & 0xFF));
        break;
      case 3: {  // duplicate a slice (inflates claimed counts vs payload)
        if (data.empty()) break;
        const std::size_t from = rng() % data.size();
        const std::size_t len = 1 + rng() % (data.size() - from);
        data.insert(rng() % data.size(), data.substr(from, len));
        break;
      }
      default: {  // splice the head of one entry onto the tail of another
        const std::string& other = corpus[rng() % corpus.size()];
        if (other.empty()) break;
        data = data.substr(0, data.empty() ? 0 : rng() % data.size()) +
               other.substr(rng() % other.size());
        break;
      }
    }
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir;
  std::uint64_t iters = 10000;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg.rfind("--iters", 0) == 0) {
      iters = std::strtoull(value("--iters").c_str(), nullptr, 10);
    } else if (arg.rfind("--seed", 0) == 0) {
      seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (corpus_dir.empty()) {
      corpus_dir = arg;
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (corpus_dir.empty()) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR [--iters N] [--seed S]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(corpus_dir, ec)) {
    std::fprintf(stderr, "corpus directory '%s' not found\n",
                 corpus_dir.c_str());
    return 2;
  }
  const std::vector<std::string> corpus = load_corpus(corpus_dir);
  if (corpus.empty()) {
    std::fprintf(stderr, "corpus directory '%s' is empty\n",
                 corpus_dir.c_str());
    return 2;
  }

  for (const std::string& entry : corpus) run_one(entry);
  std::mt19937_64 rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) run_one(mutate(corpus, rng));
  std::printf("fuzz: %zu corpus file(s) + %llu mutated input(s), no "
              "violations\n",
              corpus.size(), static_cast<unsigned long long>(iters));
  return 0;
}
