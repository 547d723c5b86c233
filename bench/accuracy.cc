// Paper accuracy: Daydream's predictions against the ground-truth executor
// for every figure, section and ablation row in tests/paper_accuracy.h.
//
//   ./build/accuracy [OUT.json]   # default BENCH_accuracy.json
//
// The output is deterministic: CI and integration_test require it to match
// the committed BENCH_accuracy.json byte for byte.
#include <fstream>
#include <iostream>

#include "src/util/string_util.h"
#include "src/util/table.h"
#include "tests/paper_accuracy.h"

using namespace daydream;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_accuracy.json";
  std::vector<AccuracyRow> rows = PaperAccuracyTable();
  MeasureAccuracy(&rows);

  TablePrinter table({"figure", "model", "case", "ablation", "baseline (ms)", "ground truth (ms)",
                      "predicted (ms)", "error", "paper bound"});
  int outside = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const AccuracyRow& row = rows[i];
    const AccuracyResult& r = row.result;
    if (i > 0 && row.figure != rows[i - 1].figure) {
      table.AddSeparator();
    }
    outside += r.within_paper_bound ? 0 : 1;
    table.AddRow({row.figure, ModelName(row.model), CaseLabel(row), row.ablation,
                  StrFormat("%.1f", ToMs(r.baseline)),
                  row.measured ? StrFormat("%.1f", ToMs(r.ground_truth)) : "-",
                  StrFormat("%.1f", ToMs(r.predicted)),
                  row.measured ? StrFormat("%.2f%%", r.error_pct) : "-",
                  row.paper_bound_pct ? StrFormat("%.1f%%%s", *row.paper_bound_pct,
                                                  r.within_paper_bound ? "" : " EXCEEDED")
                                      : "-"});
  }
  std::cout << "\n=== Paper accuracy: Daydream vs the ground-truth executor ===\n\n";
  table.Print(std::cout);
  std::cout << StrFormat("\n%zu rows, %d outside their paper bound\n", rows.size(), outside);

  if (!(std::ofstream(out_path, std::ios::binary) << AccuracyJson(rows))) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
