"""Every numeric tolerance in rdts, one name per decision.

The information ratios and rate-distortion statistics are exact finite sums,
so each tolerance below only absorbs floating-point rounding in one named
comparison. Modules import the names they use; no other module writes a
tolerance value.

No tolerance decides what an observation is: two outcome values of an action
are the same observation exactly when their floats are equal.
"""

# --- model: instances and their outcome pmfs -------------------------------

# Action and parameter vectors may exceed norm 1 by this much (closed unit ball).
NORM_TOL = 1e-12

# Outcome probabilities built from an instance's means may leave [0, 1], and a
# two-point pmf may miss sum 1, by this much before the instance is rejected;
# also the slack on linear_binary's |a.theta| <= 1 and glm's reward range <= 1.
OUTCOME_PMF_TOL = 1e-12

# --- inference: beliefs and likelihoods -------------------------------------

# Belief entries may be this negative, and their sum may miss 1 by this much,
# before a belief is rejected; within it they are clipped and renormalised.
BELIEF_TOL = 1e-10

# --- information: pmfs and ratios -------------------------------------------

# A pmf handed to ``entropy`` may have entries this negative, and its sum may
# miss 1 by this much; ``information._grouped_mi`` checks each joint's sum, and
# ``two_point_pair`` the sum of its weights, against it too.
INPUT_PMF_TOL = 1e-9

# An information ratio whose denominator (nats) is at most this is degenerate.
DENOMINATOR_TOL = 1e-12

# A degenerate ratio is an error only if its numerator (squared regret)
# exceeds this: positive regret with no information gain is impossible.
NUMERATOR_TOL = 1e-9

# A representation's stored cell masses must equal the belief's pushforward
# onto cells to within this, entry by entry.
CELL_MASS_TOL = 1e-9

# --- compression: partitions and two-point representatives -----------------

# A cell is certified when its largest pairwise distortion is at most
# epsilon + CERT_TOL.
CERT_TOL = 1e-12

# ``two_point_pair``: feasibility slack on each mixture inequality, how
# negative a weight may be, and how far apart two scores may be and still
# count as tied (a tied pair must meet its target at every mixture weight).
PAIR_TOL = 1e-12

# The logistic ladder counts ceil(gap / epsilon - LADDER_TOL) levels, so a gap
# that is a whole number of epsilon steps up to rounding adds no level.
LADDER_TOL = 1e-12

# Slack on the logistic margin |alpha(theta).theta| >= delta and on every
# layer band edge. The margin check and the closed left edge of band 1 (at
# delta) share it, so every parameter that clears the margin lands in a band.
MARGIN_TOL = 1e-12

# --- policy and cli: audits and reported checks ------------------------------

# Slack on every inequality of the regret-chain audit.
AUDIT_TOL = 1e-8

# ``ir-sweep`` flags a ratio as violating the d/2 ceiling only when it exceeds
# d/2 by more than this.
RATIO_CEILING_TOL = 1e-9
