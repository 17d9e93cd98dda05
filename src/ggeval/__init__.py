"""Evaluation toolkit for graph generative models.

Embeds graph sets with a contrastively trained GIN encoder, compares the
embedding distributions (Frechet distance, k-NN precision/recall,
density/coverage, MMD), and scores the metrics themselves by how well
they track controlled perturbations of a reference set. Also ships local
graph statistics (clustering, 4-node orbit census, WL refinement/kernel)
and executable checks of where local statistics and message passing
disagree.

Import from the submodules (ggeval.encoder, ggeval.metrics, ...): the package
holds only __version__ and loads nothing, so entry points can configure the
environment (e.g. BLAS thread counts) before numpy loads.
"""

__version__ = "0.1.0"
