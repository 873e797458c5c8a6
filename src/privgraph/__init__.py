"""privgraph: differentially private synthetic attributed graphs with
fused Gromov-Wasserstein utility guarantees. Import each name from its
module (space, noise, measures, graphs, generator, fgw, bounds, experiments,
cli); importing the package alone loads none of them."""

__version__ = "0.1.0"  # the manifest's "version"
