// Minimal JSON writer.
//
// The bench runner emits machine-readable run manifests and JSONL metric
// streams (DESIGN.md "Observability & provenance"); scripts/bench_report.py
// reads them back with Python's json module, so the program itself only
// writes JSON. No third-party JSON library is available in the build image,
// and the documents are small, so a compact recursive value type is the
// right size: objects preserve insertion order (manifests diff cleanly),
// integers print exactly (seeds are full 64-bit values), and doubles print
// shortest-round-trip via std::to_chars.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace radio {

class Json {
 public:
  Json() noexcept : type_(Type::kNull) {}
  Json(std::nullptr_t) noexcept : type_(Type::kNull) {}
  Json(bool value) noexcept : type_(Type::kBool), bool_(value) {}
  Json(int value) noexcept : type_(Type::kInt), int_(value) {}
  Json(std::int64_t value) noexcept : type_(Type::kInt), int_(value) {}
  Json(std::uint64_t value) noexcept : type_(Type::kUint), uint_(value) {}
  Json(double value) noexcept : type_(Type::kDouble), double_(value) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  /// Appends to an array.
  void push_back(Json value);

  /// Appends a key to an object, or overwrites it in place; returns *this.
  Json& set(std::string key, Json value);

  /// Serializes. indent < 0 → compact single line (JSONL); indent >= 0 →
  /// pretty-printed with that many spaces per level.
  std::string dump(int indent = -1) const;

 private:
  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };

  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace radio
