// Renders a metrics snapshot (the JSON written by --metrics-out= or
// obs::MetricRegistry::WriteJsonFile) as terminal dashboards: a per-NF
// isolation table built from the `nf.*` series, plus flat listings of every
// counter, gauge and histogram in the snapshot.
//
// Usage: obs_report <metrics.json> [--all]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table_printer.h"
#include "src/obs/json.h"

namespace {

using snic::TablePrinter;
using snic::obs::json::Value;

std::string LabelString(const Value& series) {
  const Value* labels = series.Find("labels");
  if (labels == nullptr || !labels->is_object() ||
      labels->AsObject().empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels->AsObject()) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += k + "=" + (v.is_string() ? v.AsString() : "?");
  }
  return out + "}";
}

std::string NumberString(const Value* v) {
  if (v == nullptr || !v->is_number()) {
    return "-";
  }
  const double d = v->AsNumber();
  if (d == static_cast<double>(static_cast<int64_t>(d))) {
    return std::to_string(static_cast<int64_t>(d));
  }
  return TablePrinter::Fmt(d, 2);
}

// The per-NF dashboard: one row per `nf=` label value seen in nf.* series.
void PrintNfDashboard(const Value& doc) {
  // nf name -> metric name -> formatted value
  std::map<std::string, std::map<std::string, std::string>> per_nf;
  auto scan = [&per_nf](const Value* list) {
    if (list == nullptr || !list->is_array()) {
      return;
    }
    for (const Value& series : list->AsArray()) {
      const Value* name = series.Find("name");
      const Value* labels = series.Find("labels");
      if (name == nullptr || labels == nullptr ||
          name->AsString().rfind("nf.", 0) != 0) {
        continue;
      }
      const Value* nf = labels->Find("nf");
      if (nf == nullptr || !nf->is_string()) {
        continue;
      }
      per_nf[nf->AsString()][name->AsString()] =
          NumberString(series.Find("value"));
    }
  };
  scan(doc.Find("counters"));
  scan(doc.Find("gauges"));
  if (per_nf.empty()) {
    std::printf("(no nf.* series in snapshot)\n\n");
    return;
  }
  TablePrinter table(
      {"NF", "packets", "forwarded", "dropped", "bytes", "flow entries"});
  for (const auto& [nf, metrics] : per_nf) {
    auto cell = [&metrics](const std::string& key) {
      const auto it = metrics.find(key);
      return it == metrics.end() ? std::string("-") : it->second;
    };
    table.AddRow({nf, cell("nf.packets"), cell("nf.forwarded"),
                  cell("nf.dropped"), cell("nf.bytes"),
                  cell("nf.flow_entries")});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void PrintScalarSection(const Value& doc, const char* key, const char* title) {
  const Value* list = doc.Find(key);
  if (list == nullptr || !list->is_array() || list->AsArray().empty()) {
    return;
  }
  std::printf("-- %s (%zu) --\n", title, list->AsArray().size());
  TablePrinter table({"series", "value"});
  for (const Value& series : list->AsArray()) {
    const Value* name = series.Find("name");
    table.AddRow({(name != nullptr ? name->AsString() : "?") +
                      LabelString(series),
                  NumberString(series.Find("value"))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void PrintHistogramSection(const Value& doc) {
  const Value* list = doc.Find("histograms");
  if (list == nullptr || !list->is_array() || list->AsArray().empty()) {
    return;
  }
  std::printf("-- histograms (%zu) --\n", list->AsArray().size());
  TablePrinter table({"series", "count", "mean", "p50", "p99", "max"});
  for (const Value& series : list->AsArray()) {
    const Value* name = series.Find("name");
    table.AddRow({(name != nullptr ? name->AsString() : "?") +
                      LabelString(series),
                  NumberString(series.Find("count")),
                  NumberString(series.Find("mean")),
                  NumberString(series.Find("p50")),
                  NumberString(series.Find("p99")),
                  NumberString(series.Find("max"))});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  snic::bench::RequireKnownFlags(argc, argv, {"--all"}, "<metrics.json>");
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <metrics.json> [--all]\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto parsed = Value::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[1],
                 parsed.status().message().c_str());
    return 1;
  }
  const Value& doc = parsed.value();

  std::printf("== Per-NF isolation dashboard ==\n");
  PrintNfDashboard(doc);

  bool all = false;
  for (int i = 2; i < argc; ++i) {
    all |= std::strcmp(argv[i], "--all") == 0;
  }
  if (all) {
    PrintScalarSection(doc, "counters", "counters");
    PrintScalarSection(doc, "gauges", "gauges");
  }
  PrintHistogramSection(doc);
  return 0;
}
