"""Dissipative Lagrangian dynamics with generalized Rayleigh potentials."""

from .exprcore import (EvalContext, ExprNode, ParseError, BindError,
                       EvalDomainError, parse, evaluate, grad_q, grad_v,
                       fd_gradient, to_source)
from .raymodel import (DissipationSpec, DissipationTerm, QuadratureConfig,
                       SystemSpec, eval_D, eval_R, eval_R_closed,
                       eval_R_quadrature, grad_R_v, homogeneity_check,
                       euler_identity_check, positivity_scan)
from .dynamics import (Diagnostics, IntegratorConfig, State, Trajectory,
                       accel, integrate)
from .audit import (AuditReport, AuditTolerances, energy_balance_audit,
                    full_audit, generalized_force, stationarity_audit)
from .builtins import BUILTIN_NAMES, get_builtin
from .config import RunConfig, load_config, config_from_dict, config_to_dict

__version__ = "0.1.0"
