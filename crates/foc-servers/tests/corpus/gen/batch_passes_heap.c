// n=-1 churn=43 sequence=3
long f(long n) {
    long k = 0;
    unsigned int a1[9];
    unsigned int* b1 = (unsigned int*) malloc(32);
    unsigned int* p = b1 + 6;
    p = b1 + 4;
    for (k = 0; k < 3; k++) {
        p[k] = a1[k];
    }
}
