"""Module/Parameter abstractions, mirroring the familiar ``torch.nn`` pattern.

A :class:`Module` is a tree of submodules and :class:`Parameter` leaves.
``parameters()`` walks the tree; optimizers consume that flat list.

Only *tree attributes* are walked: a :class:`Module` or :class:`Parameter`,
or a list/tuple/dict holding at least one when it is assigned.  Other
attributes — notably the per-model sample and merge caches, which hold
thousands of entries after training — are never iterated, so a mode
switch or a parameter walk costs the same however warm the caches are.
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad=True`` by construction)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


def _is_node(value: Any) -> bool:
    return isinstance(value, (Module, Parameter))


def _holds_tree(value: Any) -> bool:
    """Whether an attribute value belongs to the module tree."""
    if _is_node(value):
        return True
    if isinstance(value, (list, tuple)):
        return any(_is_node(item) for item in value)
    if isinstance(value, dict):
        return any(_is_node(item) for item in value.values())
    return False


class Module:
    """Base class for all neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__`` and implement ``forward``.  Instances are callable.

    A list/tuple/dict attribute joins the tree when it holds a module or
    parameter at assignment; one filled afterwards must be registered with
    :meth:`_register_tree_attr` (as :class:`ModuleList` does).
    """

    def __init__(self) -> None:
        self.training = True

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        tree = self.__dict__.setdefault("_tree_attrs", set())
        if _holds_tree(value):
            tree.add(name)
        else:
            tree.discard(name)

    def _register_tree_attr(self, name: str) -> None:
        self.__dict__.setdefault("_tree_attrs", set()).add(name)

    def _tree_items(self) -> Iterator[Tuple[str, Any]]:
        """Tree attributes as ``(name, value)``, in assignment order."""
        tree = self.__dict__.get("_tree_attrs", ())
        return ((attr, value) for attr, value in vars(self).items() if attr in tree)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for attr, value in self._tree_items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}[{i}]", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{name}[{i}]")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{name}[{key}]", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{name}[{key}]")

    def parameters(self) -> list:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch the whole tree to training mode (enables dropout)."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch the whole tree to inference mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for _attr, value in self._tree_items():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item._set_mode(training)

    # ------------------------------------------------------------------
    # (De)serialisation: a flat dict of numpy arrays keyed by dotted names.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.shape}, got {value.shape}"
                )
            param.data = value.copy()


class ModuleList(Module):
    """A list container whose items are registered submodules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self.items = list(modules)
        self._register_tree_attr("items")  # filled later by append()

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __len__(self) -> int:
        return len(self.items)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers don't forward
        raise TypeError("ModuleList is a container and cannot be called")
