"""Quantum search by a single subset-parity query.

A dense statevector simulation of the full circuit at desk scale, a
closed-form amplitude model valid for any power-of-two item count, exact
and Monte Carlo majority-vote success probabilities, and gate-count
accounting under explicit cost models.
"""

from .analytic import (
    AmplitudeModel,
    MonteCarloEstimate,
    amplitudes,
    analytic_product_state,
    exact_failure_probability,
    exact_success_probability,
    monte_carlo_success_probability,
    per_sample_distribution,
    scheduled_sample_count,
)
from .circuit import (
    CircuitRun,
    GateRecord,
    SearchOutcome,
    build_circuit,
    layout_for,
    majority_postprocess,
    measure_samples,
    run_circuit,
    run_search,
)
from .complexity import (
    AsymptoticReport,
    CostModel,
    GateTally,
    QueryComparison,
    asymptotic_report,
    naive_cost_model,
    paper_cost_model,
    predict_tally,
    query_count_comparison,
    tally_of_records,
)
from .errors import CapacityError, DomainError
from .oracle import (
    BooleanPredicate,
    IncidenceVector,
    ParityIdentityReport,
    SampleTuple,
    SearchParameters,
    incidence_of_samples,
    occurrence_parity,
    single_item_query,
    subset_parity_query,
    verify_parity_identity,
)
from .statevector import (
    StateVector,
    apply_hadamard,
    apply_inversion_about_average,
    apply_sigma_z,
    apply_value_controlled_flip,
    apply_value_controlled_phase,
    fidelity_mod_phase,
    marginal_distribution,
    zero_state,
)

__version__ = "0.1.0"
