// Mamdani fuzzy inference engine.
//
// Generic substrate for the fuzzy temperature controller (paper ref [10]:
// Ibrahim et al., "Fuzzy-based Temperature and Humidity Control for HVAC
// of Electric Vehicle"). Triangular/trapezoidal membership functions,
// min-AND rule activation, max aggregation, centroid defuzzification.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace evc::ctl {

/// Trapezoidal membership function (a ≤ b ≤ c ≤ d); a triangle has b == c.
/// Membership rises linearly on [a, b], is 1 on [b, c], falls on [c, d].
class MembershipFunction {
 public:
  MembershipFunction(std::string label, double a, double b, double c,
                     double d);
  static MembershipFunction triangle(std::string label, double a, double b,
                                     double c);

  double grade(double x) const;
  const std::string& label() const { return label_; }
  double support_min() const { return a_; }
  double support_max() const { return d_; }

 private:
  std::string label_;
  double a_, b_, c_, d_;
};

/// A named input/output dimension with its linguistic sets.
class LinguisticVariable {
 public:
  LinguisticVariable(std::string name,
                     std::vector<MembershipFunction> sets);

  const std::string& name() const { return name_; }
  std::size_t num_sets() const { return sets_.size(); }
  const MembershipFunction& set(std::size_t i) const;

 private:
  std::string name_;
  std::vector<MembershipFunction> sets_;
};

/// IF in0 is A AND in1 is B … THEN out is C (indices into the variables'
/// set lists; an antecedent of kAny ignores that input).
struct FuzzyRule {
  static constexpr std::size_t kAny = static_cast<std::size_t>(-1);
  std::vector<std::size_t> antecedent;  ///< one entry per input variable
  std::size_t consequent = 0;           ///< output set index
};

class FuzzyInference {
 public:
  FuzzyInference(std::vector<LinguisticVariable> inputs,
                 LinguisticVariable output, std::vector<FuzzyRule> rules);

  /// Crisp inputs (one per input variable) → centroid-defuzzified output.
  /// If no rule fires, returns the center of the output range.
  double infer(const std::vector<double>& crisp_inputs) const;

 private:
  std::vector<LinguisticVariable> inputs_;
  LinguisticVariable output_;
  std::vector<FuzzyRule> rules_;
  double out_min_, out_max_;
};

}  // namespace evc::ctl
