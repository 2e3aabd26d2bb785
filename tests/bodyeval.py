"""A tree-walking evaluator of equation bodies and a lister of the
variables they read, written apart from the engine's `compile_body`: the
references the tests check compiled bodies, their reads and solved worlds
against."""

from causelab.model import BoolOp, If, Lit, Not, Var

_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": lambda a, b: a if a <= b else b,
    "max": lambda a, b: b if a <= b else a,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def evaluate(node, env):
    """The value of the body or condition `node` when each variable has its
    value in the mapping `env`, keyed by name."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, If):
        return evaluate(node.then if evaluate(node.cond, env) else node.other, env)
    if isinstance(node, Not):
        return not evaluate(node.inner, env)
    if isinstance(node, BoolOp):
        left = evaluate(node.left, env)
        if node.op == "&&":
            return left and evaluate(node.right, env)
        return left or evaluate(node.right, env)
    return _OPS[node.op](evaluate(node.left, env), evaluate(node.right, env))


def references(node):
    """The variables the body or condition `node` reads, in the order the
    surface syntax writes them (an `if`'s condition before its branches),
    repeats included."""
    if isinstance(node, Lit):
        return []
    if isinstance(node, Var):
        return [node.name]
    if isinstance(node, If):
        return references(node.cond) + references(node.then) + references(node.other)
    if isinstance(node, Not):
        return references(node.inner)
    return references(node.left) + references(node.right)
