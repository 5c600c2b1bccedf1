#include "core/figure_export.h"

#include "core/figures.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dataset/generator.h"
#include "parse/filter.h"
#include "util/strings.h"

namespace avtk::core {
namespace {

struct fixture {
  dataset::failure_database db;
  std::vector<dataset::manufacturer> makers;
};

const fixture& fx() {
  static const fixture f = [] {
    dataset::generator_config cfg;
    cfg.render_documents = false;
    fixture out;
    out.db = dataset::generate_corpus(cfg).to_database();
    out.makers = parse::analyzed_manufacturers(out.db);
    return out;
  }();
  return f;
}

TEST(FigureExport, Fig4HasOneRowPerManufacturer) {
  const auto bundle = export_fig4(fx().db, fx().makers);
  ASSERT_TRUE(bundle.contains("fig4.dat"));
  ASSERT_TRUE(bundle.contains("fig4.gp"));
  // One comment line + one row per maker.
  const auto lines = str::split(bundle.at("fig4.dat"), '\n');
  std::size_t data_lines = 0;
  for (const auto& line : lines) {
    if (!line.empty() && line[0] != '#') ++data_lines;
  }
  EXPECT_EQ(data_lines, fx().makers.size());
}

TEST(FigureExport, Fig5OneSeriesPerManufacturer) {
  const auto bundle = export_fig5(fx().db, fx().makers);
  EXPECT_TRUE(bundle.contains("fig5.gp"));
  std::size_t series = 0;
  for (const auto& [name, contents] : bundle) {
    if (str::starts_with(name, "fig5_")) {
      ++series;
      EXPECT_GT(contents.size(), 30u) << name;
    }
  }
  EXPECT_EQ(series, fx().makers.size());
}

TEST(FigureExport, Fig8DatMatchesPointCount) {
  const auto bundle = export_fig8(fx().db, fx().makers);
  const auto data = build_fig8(fx().db, fx().makers);
  const auto lines = str::split(bundle.at("fig8.dat"), '\n');
  std::size_t data_lines = 0;
  for (const auto& line : lines) {
    if (!line.empty() && line[0] != '#') ++data_lines;
  }
  EXPECT_EQ(data_lines, data.log_dpm.size());
  EXPECT_TRUE(str::contains(bundle.at("fig8.gp"), "fit f(x)"));
}

TEST(FigureExport, DatValuesParseAsNumbers) {
  const auto bundle = export_fig12(fx().db);
  for (const auto& [name, contents] : bundle) {
    if (!name.ends_with(".dat")) continue;
    for (const auto& line : str::split(contents, '\n')) {
      if (line.empty() || line[0] == '#') continue;
      for (const auto& field : str::split_whitespace(line)) {
        EXPECT_TRUE(str::parse_double(field).has_value()) << name << ": " << line;
      }
    }
  }
}

TEST(FigureExport, AllFiguresBundlePrefixed) {
  const auto all = export_all_figures(fx().db, fx().makers);
  EXPECT_TRUE(all.contains("fig4/fig4.dat"));
  EXPECT_TRUE(all.contains("fig8/fig8.gp"));
  EXPECT_TRUE(all.contains("fig12/fig12_relative.dat"));
  EXPECT_GT(all.size(), 15u);
}

TEST(FigureExport, WriteBundleCreatesFiles) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "avtk_export_test";
  fs::remove_all(dir);
  const export_bundle bundle = {{"a/b.dat", "1 2\n"}, {"c.gp", "plot x\n"}};
  EXPECT_EQ(write_bundle(bundle, dir.string()), 2u);
  EXPECT_TRUE(fs::exists(dir / "a" / "b.dat"));
  std::ifstream in(dir / "c.gp");
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "plot x\n");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace avtk::core
