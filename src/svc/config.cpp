#include "svc/config.hpp"

#include <cmath>
#include <stdexcept>

#include "util/json_parse.hpp"

namespace evc::svc {

namespace {

/// Config spellings of SyncPolicy, indexed by its value.
constexpr const char* kSyncNames[] = {"always", "batched", "never"};

[[noreturn]] void bad_key(const std::string& key, const std::string& why) {
  throw std::invalid_argument("service config: key \"" + key + "\" " + why);
}

double number_field(const std::string& key, const JsonValue& value) {
  if (!value.is_number()) bad_key(key, "must be a number");
  return value.as_number();
}

std::size_t size_field(const std::string& key, const JsonValue& value) {
  const double v = number_field(key, value);
  if (v < 0.0 || v != std::floor(v) || v > 1e15)
    bad_key(key, "must be a non-negative integer");
  return static_cast<std::size_t>(v);
}

double nonneg_field(const std::string& key, const JsonValue& value) {
  const double v = number_field(key, value);
  if (v < 0.0) bad_key(key, "must be >= 0");
  return v;
}

SyncPolicy sync_field(const std::string& key, const JsonValue& value) {
  if (!value.is_string()) bad_key(key, "must be a string");
  for (std::size_t i = 0; i < std::size(kSyncNames); ++i)
    if (value.as_string() == kSyncNames[i]) return static_cast<SyncPolicy>(i);
  bad_key(key, "must be one of always|batched|never");
}

void apply_store(SessionStoreOptions& store, const JsonValue& object) {
  for (const auto& [key, value] : object.members()) {
    if (key == "sync") store.sync = sync_field("store.sync", value);
    else if (key == "batch_every")
      store.batch_every = size_field("store.batch_every", value);
    else if (key == "compact_every")
      store.compact_every = size_field("store.compact_every", value);
    else
      bad_key("store." + key, "is not a recognized option");
  }
}

void apply_slo_rule(obs::SloRuleOptions& rule, const std::string& prefix,
                    const JsonValue& object) {
  for (const auto& [key, value] : object.members()) {
    const std::string path = prefix + "." + key;
    if (key == "objective") {
      rule.objective = number_field(path, value);
      if (rule.objective <= 0.0 || rule.objective >= 1.0)
        bad_key(path, "must be in (0, 1)");
    } else if (key == "fast_window") {
      rule.fast_window = size_field(path, value);
      if (rule.fast_window == 0) bad_key(path, "must be >= 1");
    } else if (key == "slow_window") {
      rule.slow_window = size_field(path, value);
      if (rule.slow_window == 0) bad_key(path, "must be >= 1");
    } else if (key == "fast_burn_threshold") {
      rule.fast_burn_threshold = nonneg_field(path, value);
    } else if (key == "slow_burn_threshold") {
      rule.slow_burn_threshold = nonneg_field(path, value);
    } else if (key == "clear_burn") {
      rule.clear_burn = nonneg_field(path, value);
    } else if (key == "min_samples") {
      rule.min_samples = size_field(path, value);
    } else {
      bad_key(path, "is not a recognized option");
    }
  }
}

void apply_slo(ServiceSloOptions& slo, const JsonValue& object) {
  for (const auto& [key, value] : object.members()) {
    if (key == "enabled") {
      if (!value.is_bool()) bad_key("slo.enabled", "must be a boolean");
      slo.enabled = value.as_bool();
    } else if (key == "latency_threshold_s") {
      slo.latency_threshold_s = nonneg_field("slo.latency_threshold_s", value);
    } else if (key == "latency_rule") {
      if (!value.is_object()) bad_key("slo.latency_rule", "must be an object");
      apply_slo_rule(slo.latency_rule, "slo.latency_rule", value);
    } else if (key == "error_rule") {
      if (!value.is_object()) bad_key("slo.error_rule", "must be an object");
      apply_slo_rule(slo.error_rule, "slo.error_rule", value);
    } else {
      bad_key("slo." + key, "is not a recognized option");
    }
  }
}

}  // namespace

const char* to_string(SyncPolicy policy) {
  return kSyncNames[static_cast<std::size_t>(policy)];
}

void apply_service_config_json(ServiceOptions& options,
                               const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  if (!doc.is_object())
    throw std::invalid_argument("service config: document must be an object");

  for (const auto& [key, value] : doc.members()) {
    if (key == "shards") {
      options.shards = size_field(key, value);
      if (options.shards == 0) bad_key(key, "must be >= 1");
    } else if (key == "queue_capacity") {
      options.queue_capacity = size_field(key, value);
      if (options.queue_capacity == 0) bad_key(key, "must be >= 1");
    } else if (key == "resident_per_shard") {
      options.resident_per_shard = size_field(key, value);
    } else if (key == "default_deadline_s") {
      options.default_deadline_s = nonneg_field(key, value);
    } else if (key == "retry_after_s") {
      options.retry_after_s = nonneg_field(key, value);
    } else if (key == "deadline_safety") {
      options.deadline_safety = number_field(key, value);
      if (options.deadline_safety < 1.0) bad_key(key, "must be >= 1");
    } else if (key == "ewma_alpha") {
      options.ewma_alpha = number_field(key, value);
      if (options.ewma_alpha <= 0.0 || options.ewma_alpha > 1.0)
        bad_key(key, "must be in (0, 1]");
    } else if (key == "unsampled_tier_cost_s") {
      options.unsampled_tier_cost_s = nonneg_field(key, value);
    } else if (key == "evict_retries") {
      options.evict_retries = size_field(key, value);
    } else if (key == "restore_retries") {
      options.restore_retries = size_field(key, value);
    } else if (key == "io_backoff_s") {
      options.io_backoff_s = nonneg_field(key, value);
    } else if (key == "seed") {
      options.seed = static_cast<std::uint64_t>(size_field(key, value));
    } else if (key == "store") {
      if (!value.is_object()) bad_key(key, "must be an object");
      apply_store(options.store, value);
    } else if (key == "slo") {
      if (!value.is_object()) bad_key(key, "must be an object");
      apply_slo(options.slo, value);
    } else if (key == "flight_dump_dir") {
      if (!value.is_string()) bad_key(key, "must be a string");
      options.flight_dump_dir = value.as_string();
    } else {
      bad_key(key, "is not a recognized option");
    }
  }
}

}  // namespace evc::svc
