"""Consistent-group classification for windowed inertial time series.

The package turns raw multichannel recordings into fixed-length
windows, compresses each window to a compact sequence representation
with a recurrent autoencoder, forms consistent groups of similar
windows by iterative hierarchical clustering, trains one classifier
per group, and routes unseen windows to the best-matching group's
model at inference time.
"""

__version__ = "0.1.0"
