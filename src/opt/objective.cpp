#include "opt/objective.h"

#include <cmath>

#include "util/error.h"

namespace wrpt {

double confidence_to_q(double confidence) {
    require(confidence > 0.0 && confidence < 1.0,
            "confidence_to_q: confidence must be in (0,1)");
    return -std::log(confidence);
}

double q_to_confidence(double q) {
    require(q > 0.0, "q_to_confidence: q must be positive");
    return std::exp(-q);
}

double objective_jn(std::span<const double> detection_probs, double n) {
    require(n >= 0.0, "objective_jn: negative test length");
    double j = 0.0;
    for (double p : detection_probs) j += std::exp(-p * n);
    return j;
}

double exact_confidence(std::span<const double> detection_probs, double n) {
    require(n >= 0.0, "exact_confidence: negative test length");
    double log_conf = 0.0;
    for (double p : detection_probs) {
        if (p >= 1.0) continue;  // always detected
        if (p <= 0.0) return 0.0;  // never detected
        // (1-p)^n via expm1/log1p for precision.
        const double miss = std::exp(n * std::log1p(-p));
        if (miss >= 1.0) return 0.0;
        log_conf += std::log1p(-miss);
    }
    return std::exp(log_conf);
}

}  // namespace wrpt
