#include "nlp/dictionary.h"

#include "nlp/stemmer.h"
#include "util/table.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "util/errors.h"
#include "util/strings.h"

namespace avtk::nlp {

void failure_dictionary::add_phrase(fault_tag tag, std::string_view raw_phrase, double weight) {
  auto words = tokenize_words(raw_phrase);
  words = remove_stopwords(words);
  auto stems = stem_all(words);
  if (stems.empty()) {
    throw logic_error("dictionary phrase '" + std::string(raw_phrase) +
                      "' is empty after stopword removal");
  }
  dictionary_phrase p;
  p.weight = weight > 0 ? weight : static_cast<double>(stems.size());
  p.stems = std::move(stems);
  by_tag_[tag].push_back(std::move(p));
}

const std::vector<dictionary_phrase>& failure_dictionary::phrases(fault_tag tag) const {
  static const std::vector<dictionary_phrase> empty;
  const auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? empty : it->second;
}

std::vector<fault_tag> failure_dictionary::tags() const {
  std::vector<fault_tag> out;
  out.reserve(by_tag_.size());
  for (const auto& [tag, phrases] : by_tag_) {
    if (!phrases.empty()) out.push_back(tag);
  }
  return out;
}

std::size_t failure_dictionary::phrase_count() const {
  std::size_t n = 0;
  for (const auto& [tag, phrases] : by_tag_) n += phrases.size();
  return n;
}

std::string failure_dictionary::serialize() const {
  std::string out;
  for (const auto& [tag, phrases] : by_tag_) {
    for (const auto& p : phrases) {
      out += tag_id(tag);
      out += '\t';
      out += format_number(p.weight, 10);
      out += '\t';
      for (std::size_t i = 0; i < p.stems.size(); ++i) {
        if (i > 0) out += ' ';
        out += p.stems[i];
      }
      out += '\n';
    }
  }
  return out;
}

failure_dictionary failure_dictionary::deserialize(std::string_view text) {
  failure_dictionary dict;
  for (const auto line : str::split(text, '\n')) {
    const auto trimmed = str::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = str::split(trimmed, '\t');
    if (fields.size() != 3) throw parse_error("dictionary line needs 3 tab fields: " + std::string(line));
    const auto tag = tag_from_string(fields[0]);
    if (!tag) throw parse_error("unknown dictionary tag: " + std::string(fields[0]));
    const auto weight = str::parse_double(fields[1]);
    if (!weight || !(*weight > 0)) {
      throw parse_error("bad dictionary weight: " + std::string(fields[1]));
    }
    dictionary_phrase p;
    p.weight = *weight;
    for (const auto stem : str::split_whitespace(fields[2])) p.stems.emplace_back(stem);
    if (p.stems.empty()) throw parse_error("empty dictionary phrase");
    dict.by_tag_[*tag].push_back(std::move(p));
  }
  return dict;
}

failure_dictionary failure_dictionary::builtin() {
  failure_dictionary d;

  // Environment: sudden external changes (Table III) — construction,
  // emergency vehicles, weather, other road users behaving erratically.
  for (const char* p : {"recklessly behaving road user", "construction zone",
                        "emergency vehicle", "heavy rain", "sun glare", "bad weather",
                        "road debris", "erratic pedestrian", "jaywalking pedestrian",
                        "cyclist swerved", "accident ahead", "lane closure"}) {
    d.add_phrase(fault_tag::environment, p);
  }

  // Computer system: hardware-platform problems.
  for (const char* p : {"processor overload", "cpu load", "compute platform",
                        "memory exhaustion", "gpu fault", "hardware fault",
                        "compute unit failure", "system resource exhaustion",
                        "processor fault", "overheating compute"}) {
    d.add_phrase(fault_tag::computer_system, p);
  }

  // Recognition system: perception failures.
  for (const char* p : {"did not see", "didn't see", "failed to detect", "lane marking",
                        "traffic light detection", "perception system", "recognition system",
                        "misdetected obstacle", "failed to classify", "object detection",
                        "failed to recognize", "false obstacle", "missed detection",
                        "stop sign detection", "incorrect detection"}) {
    d.add_phrase(fault_tag::recognition_system, p);
  }

  // Planner: motion-planning and anticipation failures.
  for (const char* p : {"motion planning", "improper motion plan", "trajectory planning",
                        "planner failed", "infeasible path", "path planning",
                        "failed to anticipate", "planning error", "unwanted maneuver",
                        "uncomfortable maneuver"}) {
    d.add_phrase(fault_tag::planner, p);
  }

  // Sensor: sensing-hardware failures.
  for (const char* p : {"failed to localize", "localization failure", "lidar dropout",
                        "radar malfunction", "gps signal lost", "camera blackout",
                        "sensor malfunction", "sensor data corruption", "calibration drift",
                        "sensor reading invalid"}) {
    d.add_phrase(fault_tag::sensor, p);
  }

  // Network: data-transport problems.
  for (const char* p : {"data rate too high", "network latency", "can bus overload",
                        "communication timeout", "network failure", "message loss on bus",
                        "bandwidth exceeded", "dropped network packets"}) {
    d.add_phrase(fault_tag::network, p);
  }

  // Design bug: situations outside the designed envelope.
  for (const char* p : {"not designed to handle", "unforeseen situation",
                        "outside operational design domain", "design limitation",
                        "unexpected scenario", "unhandled corner case",
                        "scenario beyond system capability"}) {
    d.add_phrase(fault_tag::design_bug, p);
  }

  // Software: hangs, crashes, logic bugs in the software stack.
  for (const char* p : {"software module froze", "software crash", "software hang",
                        "software bug", "process crashed", "application error",
                        "software fault", "invalid output from software", "module restart",
                        "software exception"}) {
    d.add_phrase(fault_tag::software, p);
  }

  // AV Controller (System): the follower/actuation chain not responding.
  for (const char* p : {"controller did not respond", "controller unresponsive",
                        "command not executed", "actuation fault", "steering command ignored",
                        "throttle command ignored", "brake command ignored"}) {
    d.add_phrase(fault_tag::av_controller_system, p);
  }

  // AV Controller (ML/Design): the controller deciding wrongly.
  for (const char* p : {"wrong decision", "incorrect decision", "poor decision",
                        "wrong action chosen", "controller decision error",
                        "untimely decision"}) {
    d.add_phrase(fault_tag::av_controller_ml, p);
  }

  // Hang/Crash: watchdog-detected stalls (Volkswagen's "watchdog error").
  for (const char* p : {"watchdog error", "watchdog timer", "watchdog timeout",
                        "watchdog reset"}) {
    d.add_phrase(fault_tag::hang_crash, p);
  }

  // Incorrect behavior prediction: mispredicting other road users.
  for (const char* p : {"incorrect behavior prediction", "behavior prediction",
                        "failed to predict behavior", "prediction error",
                        "mispredicted vehicle", "incorrect prediction"}) {
    d.add_phrase(fault_tag::incorrect_behavior_prediction, p);
  }

  return d;
}

}  // namespace avtk::nlp
