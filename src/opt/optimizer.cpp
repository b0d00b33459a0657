#include "opt/optimizer.h"

#include <algorithm>

#include "opt/normalize.h"
#include "opt/objective.h"
#include "opt/pipeline.h"

namespace wrpt {

optimize_result optimize_weights(const netlist& nl,
                                 const std::vector<fault>& faults,
                                 detect_estimator& analysis,
                                 const weight_vector& start,
                                 const optimize_options& options) {
    optimize_pipeline pipeline(nl, faults, analysis, start, options);
    return pipeline.run();
}

test_length_report required_test_length(const netlist& nl,
                                        const std::vector<fault>& faults,
                                        detect_estimator& analysis,
                                        const weight_vector& weights,
                                        double confidence, unsigned threads) {
    const std::vector<double> probs = analysis.estimate_faults(
        nl, {faults.data(), faults.size()}, weights, threads);
    const normalize_result norm =
        normalize_detection_probs(probs, confidence_to_q(confidence));

    test_length_report rep;
    rep.feasible = norm.feasible;
    rep.test_length = norm.test_length;
    rep.relevant_faults = norm.relevant_faults;
    rep.zero_prob_faults = norm.zero_prob_faults;
    double hardest = 1.0;
    for (double p : probs)
        if (p > 0.0) hardest = std::min(hardest, p);
    rep.hardest_probability = hardest;
    return rep;
}

}  // namespace wrpt
