"""Training-like data reconstruction: the inversion objective, extra terms on.

On top of the inversion terms, the composite loss asks that generated
images stay correctly and confidently classified after a bounded
perturbation, look like low-noise images (a smoothness prior), and sit
where the classifier's weight gradients are small (``autograd.grad_norm_sq``,
a first-order node).  The objective, step and loop live in ``inversion``;
this module holds the preset.
"""

from dataclasses import dataclass

from .inversion import InversionConfig, inversion_step


@dataclass
class ReconConfig(InversionConfig):
    """Reconstruction preset: the extra terms on, no accuracy target."""
    gamma: float = 0.25
    alpha_pert: float = 1.0
    beta_pert: float = 1.0
    eta_var: float = 0.1
    eta_pix: float = 1.0        # unread (see InversionConfig.eta_pix)
    eta_grad: float = 0.01
    eps_pert: float = 0.05
    steps: int = 600
    target_accuracy: float = None


# the same step under the reconstruction name; perfbench's audit probe times it
reconstruction_step = inversion_step
