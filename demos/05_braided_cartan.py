# The braided Cartan calculus: twisted Lie derivative, insertion and the
# undeformed de Rham differential, related by graded braided commutators
# taken with respect to R_F = F_21 F^{-1}.
# Run with:  python demos/05_braided_cartan.py

from twistcalc.hyperboloid import HyperboloidModel
from twistcalc.geometry import insert
from twistcalc.starcalc import TwistedCalculus
from twistcalc.twists import trivial_twist

model = HyperboloidModel(order=4)
calc = model.calc
chart = model.chart
x1 = chart.coordinate(0)

# twisted operators act through the inverse twist on both slots
w = chart.basis_form(0).wedge(chart.basis_form(2)).scale(x1)
d3 = chart.coordinate_field(2)
print("i^F_{d_3} (x1 dx1^dx3) =", calc.insert(d3, w))
print("L^F_{d_3} (x1 dx1^dx3) =", calc.lie(d3, w))

# on coordinate fields the twisted insertion is a weight-shifted classical
# insertion: i^F_{d_i} w = i_{d_i}((1 + i*hbar*E)^{w_i/2} |> w)
lhs = calc.insert(d3, w)
rhs = insert(d3,
             model.real.act(model.weight_factor(2), w))
print("weight-factor formula agrees:", lhs == rhs)

# all six identities, exact residuals: trivial twist first (the classical
# calculus), then the Jordanian deformation
triv = TwistedCalculus(model.real, trivial_twist(model.alg))
print("\n--- classical (trivial twist) ---")
print(triv.cartan_report().format_text())

print("\n--- Jordanian twist ---")
print(calc.cartan_report().format_text())
