"""Style-statistics manipulation for domain generalization.

Training-time style balancing equalizes per-class domain counts inside each
mini-batch by restyling redundant samples; test-time style shifting
renormalizes out-of-distribution test samples to the nearest source-domain
style before prediction. A small convolutional network, a synthetic
multi-domain dataset and an experiment harness make every mechanism testable
at desk scale.
"""

__version__ = "0.1.0"
