#include "sketch/sketch_config.h"

#include "sim/key_value_spec.h"

namespace ecnsharp {

bool ParseSketchSpec(const std::string& spec, SketchConfig* out,
                     std::string* error) {
  SketchConfig config;
  config.enabled = true;
  if (spec == "on" || spec == "default" || spec == "1") {
    *out = config;
    return true;
  }
  if (spec.empty()) {
    if (error != nullptr) *error = "empty sketch spec";
    return false;
  }
  const bool ok = ScanKeyValueSpec(
      spec,
      [&config](const std::string& key, const std::string& value,
                std::string* term_error) {
        std::size_t n = 0;
        if (key == "mem") {
          if (!ParseSpecCount(value, 1u << 20, &config.memory_kb)) {
            *term_error = "bad mem KiB '" + value + "'";
            return false;
          }
        } else if (key == "depth") {
          if (!ParseSpecCount(value, 16, &config.depth)) {
            *term_error = "bad depth '" + value + "'";
            return false;
          }
        } else if (key == "epoch") {
          if (!ParseSpecCount(value, 10'000'000, &n) || n < 10) {
            *term_error = "bad epoch us '" + value + "'";
            return false;
          }
          config.epoch = Time::FromMicroseconds(static_cast<double>(n));
        } else if (key == "window") {
          if (!ParseSpecCount(value, 128, &config.window_epochs) ||
              config.window_epochs < 2) {
            *term_error = "bad window '" + value + "'";
            return false;
          }
        } else if (key == "decay") {
          if (!ParseSpecCount(value, 100, &n)) {
            *term_error = "bad decay percent '" + value + "'";
            return false;
          }
          config.decay = static_cast<double>(n) / 100.0;
        } else if (key == "hh") {
          // hh:0 turns the heavy-hitter table off, as "heavy_hitters": 0
          // does in a record.
          if (value == "0") {
            config.heavy_hitters = 0;
          } else if (!ParseSpecCount(value, 1024, &config.heavy_hitters)) {
            *term_error = "bad hh count '" + value + "'";
            return false;
          }
        } else if (key == "exact") {
          if (!ParseSpecOnOff(value, &config.track_exact)) {
            *term_error = "bad exact value '" + value + "'";
            return false;
          }
        } else {
          *term_error = "unknown sketch key '" + key + "'";
          return false;
        }
        return true;
      },
      error);
  if (!ok) return false;
  *out = config;
  return true;
}

}  // namespace ecnsharp
