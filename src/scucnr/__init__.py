"""Day-ahead security-constrained unit commitment with corrective
network reconfiguration: extensive models and Benders-style decomposition
with a distribution-factor screener and a ranked corrective-switch search.
"""

from .backend import (CscMatrix, LinearProgram, SolveResult, SolverError, solve_lp,
                      solve_milp)
from .caseio import (CaseFormatError, CaseIOError, CaseValidationError,
                     RunReport, parse_case, write_case, write_report)
from .model import (Branch, Bus, FeasibilityCut, Generator, MucSolution,
                    SubproblemOutcome, SystemCase, validate_case)
from .network import (NetworkSensitivities, build_sensitivities,
                      check_connectivity, classify_radial, compute_lodf,
                      compute_ptdf, rank_cbce)
from .orchestrator import (METHODS, ScheduleResult, SolveOptions,
                           VerificationReport, solve, verify_schedule,
                           verify_solution)
from .subproblems import (OutageRows, ScreeningResult, find_corrective_switch, run_csps,
                          solve_pcfc)

__version__ = "0.1.0"

__all__ = [
    "Branch", "Bus", "CaseFormatError", "CaseIOError", "CaseValidationError", "CscMatrix",
    "FeasibilityCut", "Generator", "LinearProgram", "METHODS", "MucSolution",
    "NetworkSensitivities", "OutageRows", "RunReport", "ScheduleResult", "ScreeningResult",
    "SolveOptions", "SolveResult", "SolverError", "SubproblemOutcome", "SystemCase", "VerificationReport",
    "build_sensitivities", "check_connectivity", "classify_radial",
    "compute_lodf", "compute_ptdf", "find_corrective_switch", "parse_case",
    "rank_cbce", "run_csps", "solve", "solve_lp", "solve_milp",
    "solve_pcfc", "validate_case", "verify_schedule", "verify_solution",
    "write_case", "write_report",
]
