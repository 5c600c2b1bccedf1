#include "core/figure_export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/figures.h"
#include "util/errors.h"

namespace avtk::core {

namespace {

std::string slug(dataset::manufacturer m) {
  return std::string(dataset::manufacturer_id(m));
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.8g", v);
  return buf;
}

// gnuplot 'plot' fragments joined with ", \\\n  ".
std::string join_plots(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", \\\n  ";
    out += parts[i];
  }
  return out;
}

}  // namespace

export_bundle export_fig4(const dataset::failure_database& db,
                          const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  // Box data: one row per manufacturer: idx min q1 median q3 max.
  std::string dat = "# idx whisker_low q1 median q3 whisker_high label\n";
  std::string xtics;
  int idx = 0;
  for (const auto& s : build_fig4(db, makers)) {
    dat += std::to_string(idx) + " " + num(s.box.whisker_low) + " " + num(s.box.q1) + " " +
           num(s.box.median) + " " + num(s.box.q3) + " " + num(s.box.whisker_high) + " " +
           slug(s.maker) + "\n";
    if (!xtics.empty()) xtics += ", ";
    xtics += "\"" + std::string(dataset::manufacturer_short_name(s.maker)) + "\" " +
             std::to_string(idx);
    ++idx;
  }
  out["fig4.dat"] = dat;
  out["fig4.gp"] =
      "set title 'Fig. 4: per-car DPM across manufacturers'\n"
      "set logscale y\n"
      "set ylabel 'Disengagements / Mile'\n"
      "set xtics (" + xtics + ") rotate by -30\n"
      "set boxwidth 0.4\n"
      "set style fill empty\n"
      "plot 'fig4.dat' using 1:3:2:6:5 with candlesticks whiskerbars notitle, \\\n"
      "  '' using 1:4:4:4:4 with candlesticks lt -1 notitle\n";
  return out;
}

export_bundle export_fig5(const dataset::failure_database& db,
                          const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  std::vector<std::string> plots;
  for (const auto& s : build_fig5(db, makers)) {
    if (s.cumulative_miles.empty()) continue;
    std::string dat = "# cumulative_miles cumulative_disengagements\n";
    for (std::size_t i = 0; i < s.cumulative_miles.size(); ++i) {
      dat += num(s.cumulative_miles[i]) + " " + num(s.cumulative_disengagements[i]) + "\n";
    }
    const auto name = "fig5_" + slug(s.maker) + ".dat";
    out[name] = dat;
    plots.push_back("'" + name + "' using 1:2 with linespoints title '" +
                    std::string(dataset::manufacturer_short_name(s.maker)) + "'");
  }
  out["fig5.gp"] =
      "set title 'Fig. 5: cumulative disengagements vs cumulative miles'\n"
      "set logscale xy\n"
      "set xlabel 'Cumulative Distance (miles)'\n"
      "set ylabel 'Cumulative Disengagements'\n"
      "set key outside\n"
      "plot " + join_plots(plots) + "\n";
  return out;
}

export_bundle export_fig8(const dataset::failure_database& db,
                          const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  const auto data = build_fig8(db, makers);
  std::string dat = "# log_cumulative_miles log_dpm\n";
  for (std::size_t i = 0; i < data.log_dpm.size(); ++i) {
    dat += num(data.log_cumulative_miles[i]) + " " + num(data.log_dpm[i]) + "\n";
  }
  out["fig8.dat"] = dat;
  char title[128];
  std::snprintf(title, sizeof(title),
                "Fig. 8: log DPM vs log cumulative miles (r = %.3f)", data.pearson.r);
  out["fig8.gp"] = std::string("set title '") + title +
                   "'\n"
                   "set xlabel 'log(Cumulative Distance)'\n"
                   "set ylabel 'log(Disengagements / Mile)'\n"
                   "f(x) = a*x + b\n"
                   "fit f(x) 'fig8.dat' using 1:2 via a, b\n"
                   "plot 'fig8.dat' using 1:2 with points pt 7 ps 0.4 notitle, "
                   "f(x) with lines lw 2 notitle\n";
  return out;
}

export_bundle export_fig9(const dataset::failure_database& db,
                          const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  std::vector<std::string> plots;
  for (const auto& s : build_fig9(db, makers)) {
    if (s.dpm.empty()) continue;
    std::string dat = "# cumulative_miles monthly_dpm\n";
    for (std::size_t i = 0; i < s.dpm.size(); ++i) {
      dat += num(s.cumulative_miles[i]) + " " + num(s.dpm[i]) + "\n";
    }
    const auto name = "fig9_" + slug(s.maker) + ".dat";
    out[name] = dat;
    plots.push_back("'" + name + "' using 1:2 with points title '" +
                    std::string(dataset::manufacturer_short_name(s.maker)) + "'");
  }
  out["fig9.gp"] =
      "set title 'Fig. 9: DPM vs cumulative miles'\n"
      "set logscale xy\n"
      "set xlabel 'Cumulative Distance (miles)'\n"
      "set ylabel 'Disengagements / Mile'\n"
      "set key outside\n"
      "plot " + join_plots(plots) + "\n";
  return out;
}

export_bundle export_fig10(const dataset::failure_database& db,
                           const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  std::string dat = "# idx min q1 median q3 max label\n";
  std::string xtics;
  int idx = 0;
  for (const auto& s : build_fig10(db, makers)) {
    dat += std::to_string(idx) + " " + num(s.box.whisker_low) + " " + num(s.box.q1) + " " +
           num(s.box.median) + " " + num(s.box.q3) + " " + num(s.box.whisker_high) + " " +
           slug(s.maker) + "\n";
    if (!xtics.empty()) xtics += ", ";
    xtics += "\"" + std::string(dataset::manufacturer_short_name(s.maker)) + "\" " +
             std::to_string(idx);
    ++idx;
  }
  out["fig10.dat"] = dat;
  out["fig10.gp"] =
      "set title 'Fig. 10: driver reaction times'\n"
      "set logscale y\n"
      "set ylabel 'Reaction Time (s)'\n"
      "set xtics (" + xtics + ") rotate by -30\n"
      "set boxwidth 0.4\n"
      "set style fill empty\n"
      "plot 'fig10.dat' using 1:3:2:6:5 with candlesticks whiskerbars notitle, \\\n"
      "  '' using 1:4:4:4:4 with candlesticks lt -1 notitle\n";
  return out;
}

export_bundle export_fig11(const dataset::failure_database& db,
                           const std::vector<dataset::manufacturer>& makers) {
  export_bundle out;
  std::vector<std::string> plots;
  for (const auto& f : build_fig11(db, makers)) {
    // Histogram of the empirical data plus the fitted exp-Weibull pdf.
    auto rts = dataset::database_view(db).reaction_times(f.maker);
    std::erase_if(rts, [](double t) { return !(t > 0) || t > 300.0; });
    if (rts.size() < 30) continue;
    std::string dat = "# reaction_time_s\n";
    for (const double t : rts) dat += num(t) + "\n";
    const auto name = "fig11_" + slug(f.maker) + ".dat";
    out[name] = dat;

    char pdf[256];
    std::snprintf(pdf, sizeof(pdf),
                  "p%d(x) = %.8g*(%.8g/%.8g)*(x/%.8g)**(%.8g-1)*exp(-(x/%.8g)**%.8g)*"
                  "(1-exp(-(x/%.8g)**%.8g))**(%.8g-1)",
                  static_cast<int>(plots.size()), f.exp_weibull.power(), f.exp_weibull.shape(),
                  f.exp_weibull.scale(), f.exp_weibull.scale(), f.exp_weibull.shape(),
                  f.exp_weibull.scale(), f.exp_weibull.shape(), f.exp_weibull.scale(),
                  f.exp_weibull.shape(), f.exp_weibull.power());
    plots.push_back(std::string(pdf));
  }
  std::string gp =
      "set title 'Fig. 11: reaction-time distributions with exponentiated-Weibull fits'\n"
      "set xlabel 'Reaction Time (s)'\n"
      "set ylabel 'PDF'\n"
      "binwidth = 0.25\n"
      "bin(x) = binwidth*floor(x/binwidth) + binwidth/2\n";
  for (const auto& p : plots) gp += p + "\n";
  gp += "# plot each fig11_<maker>.dat as: plot 'fig11_<maker>.dat' using "
        "(bin($1)):(1.0) smooth fnormal with boxes, p0(x) with lines\n";
  out["fig11.gp"] = gp;
  return out;
}

export_bundle export_fig12(const dataset::failure_database& db) {
  export_bundle out;
  const auto data = build_fig12(db);
  const auto dump = [&](const char* name, const std::vector<double>& xs) {
    std::string dat = "# speed_mph\n";
    for (const double v : xs) dat += num(v) + "\n";
    out[name] = dat;
  };
  dump("fig12_av.dat", data.av_speeds);
  dump("fig12_other.dat", data.other_speeds);
  dump("fig12_relative.dat", data.relative_speeds);
  std::string gp =
      "set title 'Fig. 12: accident speed distributions'\n"
      "set xlabel 'Speed (mph)'\n"
      "set ylabel 'PDF'\n"
      "binwidth = 4\n"
      "bin(x) = binwidth*floor(x/binwidth) + binwidth/2\n";
  if (data.av_fit) {
    gp += "fav(x) = (1/" + num(data.av_fit->mean()) + ")*exp(-x/" + num(data.av_fit->mean()) +
          ")\n";
  }
  if (data.relative_fit) {
    gp += "frel(x) = (1/" + num(data.relative_fit->mean()) + ")*exp(-x/" +
          num(data.relative_fit->mean()) + ")\n";
  }
  gp += "plot 'fig12_relative.dat' using (bin($1)):(1.0) smooth fnormal with boxes "
        "title 'relative speed'" +
        std::string(data.relative_fit ? ", frel(x) with lines title 'exponential fit'" : "") +
        "\n";
  out["fig12.gp"] = gp;
  return out;
}

export_bundle export_all_figures(const dataset::failure_database& db,
                                 const std::vector<dataset::manufacturer>& makers) {
  export_bundle all;
  const auto merge = [&all](const std::string& prefix, const export_bundle& bundle) {
    for (const auto& [name, contents] : bundle) all[prefix + name] = contents;
  };
  merge("fig4/", export_fig4(db, makers));
  merge("fig5/", export_fig5(db, makers));
  merge("fig8/", export_fig8(db, makers));
  merge("fig9/", export_fig9(db, makers));
  merge("fig10/", export_fig10(db, makers));
  merge("fig11/", export_fig11(db, makers));
  merge("fig12/", export_fig12(db));
  return all;
}

std::size_t write_bundle(const export_bundle& bundle, const std::string& directory) {
  namespace fs = std::filesystem;
  std::size_t written = 0;
  for (const auto& [name, contents] : bundle) {
    const fs::path path = fs::path(directory) / name;
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    if (!out) throw error("cannot open for writing: " + path.string());
    out << contents;
    ++written;
  }
  return written;
}

}  // namespace avtk::core
