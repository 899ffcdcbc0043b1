"""The smallest processor: the cell the wiring, simulator and trace
tests build their lines of."""

from repro.systolic.cell import Cell


class Forward(Cell):
    """Forwards its input unchanged (net effect: one pulse of delay)."""

    IN_PORTS = ("d_in",)
    OUT_PORTS = ("d_out",)

    def step(self, inputs):
        token = inputs.get("d_in")
        return {} if token is None else {"d_out": token}
