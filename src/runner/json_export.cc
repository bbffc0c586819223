#include "runner/json_export.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "harness/config_json.h"
#include "harness/env.h"

namespace ecnsharp::runner {

Json SweepToJson(const std::string& sweep_name,
                 const std::vector<JobSpec>& specs,
                 const std::vector<JobResult>& results) {
  Json jobs = Json::Array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& result = results[i];
    Json entry = Json::Object();
    entry.Set("name", Json::Str(result.name));
    if (i < specs.size()) {
      entry.Set("config", ToJson(specs[i].config));
    }
    entry.Set("result", ToJson(result.result));
    jobs.Push(std::move(entry));
  }
  return Json::Object()
      .Set("schema_version", Json::Int(1))
      .Set("sweep", Json::Str(sweep_name))
      .Set("jobs", std::move(jobs));
}

std::string ResultsPath(const std::string& file) {
  if (EnvFlag("ECNSHARP_NO_JSON")) return "";
  const char* dir = std::getenv("ECNSHARP_RESULTS_DIR");
  return std::string(dir == nullptr || *dir == '\0' ? "results" : dir) + "/" +
         file;
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace ecnsharp::runner
