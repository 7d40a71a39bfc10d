"""Name-based construction of Byzantine behaviours for sweep configs."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List

from repro.attacks.adaptive import (
    ALittleIsEnough,
    IntermittentAttack,
    InnerProductManipulation,
    Mimic,
    OptimalDirectionAttack,
)
from repro.attacks.base import ByzantineBehavior
from repro.attacks.simple import (
    ConstantBias,
    GradientReverse,
    CostSubstitution,
    RandomGaussian,
    SignFlip,
    ZeroGradient,
)
from repro.exceptions import UnknownRegistryEntryError

_FACTORIES: Dict[str, Callable[..., ByzantineBehavior]] = {
    GradientReverse.name: GradientReverse,
    RandomGaussian.name: RandomGaussian,
    SignFlip.name: SignFlip,
    ZeroGradient.name: ZeroGradient,
    ConstantBias.name: ConstantBias,
    CostSubstitution.name: CostSubstitution,
    ALittleIsEnough.name: ALittleIsEnough,
    InnerProductManipulation.name: InnerProductManipulation,
    Mimic.name: Mimic,
    OptimalDirectionAttack.name: OptimalDirectionAttack,
    IntermittentAttack.name: IntermittentAttack,
}


def available_attacks() -> List[str]:
    """Sorted list of registered behaviour names."""
    return sorted(_FACTORIES)


def buildable_attacks() -> List[str]:
    """Registered behaviours that ``make_attack(name)`` builds with no arguments.

    The rest (``constant-bias``, ``cost-substitution``, ``intermittent``,
    ``optimal-direction``) need constructor arguments, so entry points that
    take only an attack name — the CLI and the service's job specs — offer
    and accept this list instead of :func:`available_attacks`.
    """
    return [
        name
        for name in available_attacks()
        if all(
            parameter.default is not parameter.empty
            for parameter in inspect.signature(_FACTORIES[name]).parameters.values()
        )
    ]


def make_attack(name: str, **kwargs) -> ByzantineBehavior:
    """Instantiate a Byzantine behaviour by registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownRegistryEntryError("attack", name, available_attacks()) from None
    return factory(**kwargs)
