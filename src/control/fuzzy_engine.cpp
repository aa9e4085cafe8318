#include "control/fuzzy_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace evc::ctl {

MembershipFunction::MembershipFunction(std::string label, double a, double b,
                                       double c, double d)
    : label_(std::move(label)), a_(a), b_(b), c_(c), d_(d) {
  EVC_EXPECT(a <= b && b <= c && c <= d,
             "membership breakpoints must be ordered a<=b<=c<=d");
}

MembershipFunction MembershipFunction::triangle(std::string label, double a,
                                                double b, double c) {
  return MembershipFunction(std::move(label), a, b, b, c);
}

double MembershipFunction::grade(double x) const {
  if (x <= a_ || x >= d_) {
    // Degenerate shoulders: a==b (resp. c==d) means a crisp edge that is
    // fully on at the boundary.
    if (x <= a_ && a_ == b_ && x >= a_) return 1.0;
    if (x >= d_ && c_ == d_ && x <= d_) return 1.0;
    return 0.0;
  }
  if (x < b_) return (x - a_) / (b_ - a_);
  if (x <= c_) return 1.0;
  return (d_ - x) / (d_ - c_);
}

LinguisticVariable::LinguisticVariable(std::string name,
                                       std::vector<MembershipFunction> sets)
    : name_(std::move(name)), sets_(std::move(sets)) {
  EVC_EXPECT(!sets_.empty(), "linguistic variable needs at least one set");
}

const MembershipFunction& LinguisticVariable::set(std::size_t i) const {
  EVC_EXPECT(i < sets_.size(), "set index out of range");
  return sets_[i];
}

FuzzyInference::FuzzyInference(std::vector<LinguisticVariable> inputs,
                               LinguisticVariable output,
                               std::vector<FuzzyRule> rules)
    : inputs_(std::move(inputs)), output_(std::move(output)),
      rules_(std::move(rules)) {
  EVC_EXPECT(!inputs_.empty(), "fuzzy system needs at least one input");
  EVC_EXPECT(!rules_.empty(), "fuzzy system needs at least one rule");
  out_min_ = output_.set(0).support_min();
  out_max_ = output_.set(0).support_max();
  for (std::size_t i = 1; i < output_.num_sets(); ++i) {
    out_min_ = std::min(out_min_, output_.set(i).support_min());
    out_max_ = std::max(out_max_, output_.set(i).support_max());
  }
  for (const FuzzyRule& rule : rules_) {
    EVC_EXPECT(rule.antecedent.size() == inputs_.size(),
               "rule antecedent arity mismatch");
    for (std::size_t v = 0; v < inputs_.size(); ++v)
      EVC_EXPECT(rule.antecedent[v] == FuzzyRule::kAny ||
                     rule.antecedent[v] < inputs_[v].num_sets(),
                 "rule references unknown input set");
    EVC_EXPECT(rule.consequent < output_.num_sets(),
               "rule references unknown output set");
  }
}

double FuzzyInference::infer(const std::vector<double>& crisp_inputs) const {
  EVC_EXPECT(crisp_inputs.size() == inputs_.size(),
             "crisp input arity mismatch");

  // Activation strength per output set (max aggregation across rules).
  std::vector<double> activation(output_.num_sets(), 0.0);
  for (const FuzzyRule& rule : rules_) {
    double strength = 1.0;
    for (std::size_t v = 0; v < inputs_.size(); ++v) {
      if (rule.antecedent[v] == FuzzyRule::kAny) continue;
      strength = std::min(
          strength, inputs_[v].set(rule.antecedent[v]).grade(crisp_inputs[v]));
    }
    activation[rule.consequent] =
        std::max(activation[rule.consequent], strength);
  }

  // Centroid of the clipped-and-aggregated output surface, sampled densely
  // (Mamdani max-min with discretized centroid defuzzification).
  constexpr int kSamples = 200;
  double weighted = 0.0, total = 0.0;
  for (int i = 0; i <= kSamples; ++i) {
    const double x =
        out_min_ + (out_max_ - out_min_) * static_cast<double>(i) / kSamples;
    double mu = 0.0;
    for (std::size_t s = 0; s < output_.num_sets(); ++s)
      mu = std::max(mu, std::min(activation[s], output_.set(s).grade(x)));
    weighted += mu * x;
    total += mu;
  }
  if (total <= 1e-12) return 0.5 * (out_min_ + out_max_);
  return weighted / total;
}

}  // namespace evc::ctl
