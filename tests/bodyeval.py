"""A tree-walking evaluator of equation bodies, written apart from the
engine's `compile_body`: the reference the tests check compiled bodies and
solved worlds against."""

from causelab.model import BoolOp, If, Lit, MinMax, Not, Var

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
    op = node.which if isinstance(node, MinMax) else node.op
    return _OPS[op](evaluate(node.left, env), evaluate(node.right, env))
